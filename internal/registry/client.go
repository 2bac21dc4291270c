package registry

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"pmuoutage"
	"pmuoutage/api"
)

// Client pulls artifacts from a registry server, caching decoded
// models by fingerprint. Because the address is the content hash, a
// cached model can never be stale — repeat pulls revalidate with
// If-None-Match and come back 304 with no body. Every artifact that
// does transfer is verified on receipt: decoded (which checks the
// embedded fingerprint against the content) and matched against the
// fingerprint it was requested under. Safe for concurrent use.
//
// Client implements httpserve.ModelFetcher, so outaged can hand it to
// its HTTP layer and reload shards by fingerprint.
type Client struct {
	base string
	hc   *http.Client

	mu    sync.Mutex
	cache map[string]*pmuoutage.Model

	pulls       atomic.Uint64 // GETs that transferred the artifact body
	notModified atomic.Uint64 // GETs answered 304 from the ETag
}

// NewClient validates the base URL and returns a client. A nil
// http.Client uses http.DefaultClient.
func NewClient(baseURL string, hc *http.Client) (*Client, error) {
	if strings.TrimSpace(baseURL) == "" {
		return nil, fmt.Errorf("%w: empty registry URL", ErrConfig)
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{
		base:  strings.TrimRight(baseURL, "/"),
		hc:    hc,
		cache: map[string]*pmuoutage.Model{},
	}, nil
}

// Model fetches the artifact with the given content fingerprint. With
// the model already cached, the pull is conditional: If-None-Match
// carries the fingerprint's ETag and a 304 reply returns the cached
// model without transferring a byte.
func (c *Client) Model(ctx context.Context, fingerprint string) (*pmuoutage.Model, error) {
	cached := c.cached(fingerprint)

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/models/"+fingerprint, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if cached != nil {
		req.Header.Set("If-None-Match", `"`+fingerprint+`"`)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFetch, err)
	}
	defer func() { _ = resp.Body.Close() }()

	switch {
	case resp.StatusCode == http.StatusNotModified && cached != nil:
		c.notModified.Add(1)
		return cached, nil
	case resp.StatusCode == http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, api.MaxBodyBytes+1))
		if err != nil {
			return nil, fmt.Errorf("%w: reading artifact: %v", ErrFetch, err)
		}
		m, err := pmuoutage.DecodeModel(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadArtifact, err)
		}
		if m.Fingerprint() != fingerprint {
			return nil, fmt.Errorf("%w: requested %q, received %q", ErrMismatch, fingerprint, m.Fingerprint())
		}
		c.pulls.Add(1)
		c.store(fingerprint, m)
		return m, nil
	case resp.StatusCode == http.StatusNotFound:
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, fingerprint)
	default:
		return nil, fmt.Errorf("%w: registry answered HTTP %d", ErrFetch, resp.StatusCode)
	}
}

func (c *Client) cached(fingerprint string) *pmuoutage.Model {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cache[fingerprint]
}

func (c *Client) store(fingerprint string, m *pmuoutage.Model) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache[fingerprint] = m
}

// Stats reports how many pulls transferred the artifact body and how
// many revalidated 304 — the observable half of the conditional-pull
// contract.
func (c *Client) Stats() (pulls, notModified uint64) {
	return c.pulls.Load(), c.notModified.Load()
}
