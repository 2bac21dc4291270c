package api

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// failingReader fails every read.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestReadBody: ReadBody appends the body to dst, growing it past its
// capacity; refuses a declared length past MaxBodyBytes before reading
// (*http.MaxBytesError, too_large); and wraps a failed read in
// ErrBadRequest (bad_request).
func TestReadBody(t *testing.T) {
	payload := bytes.Repeat([]byte("pmu-frame-bytes "), 600) // past dst's capacity
	req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(payload))
	got, err := ReadBody(httptest.NewRecorder(), req, append(make([]byte, 0, 8), "head"...))
	if err != nil || string(got) != "head"+string(payload) {
		t.Fatalf("ReadBody = %d bytes, %v; want head and the %d-byte payload", len(got), err, len(payload))
	}
	if got, err := ReadBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", strings.NewReader("{}")), nil); err != nil || string(got) != "{}" {
		t.Fatalf("ReadBody(nil dst) = %q, %v", got, err)
	}

	req = httptest.NewRequest(http.MethodPost, "/", failingReader{})
	req.ContentLength = MaxBodyBytes + 1
	if _, err := ReadBody(httptest.NewRecorder(), req, nil); !errors.As(err, new(*http.MaxBytesError)) || RequestCode(err) != CodeTooLarge {
		t.Fatalf("declared oversized body: %v (code %s), want *http.MaxBytesError, too_large", err, RequestCode(err))
	}
	req = httptest.NewRequest(http.MethodPost, "/", failingReader{})
	if _, err := ReadBody(httptest.NewRecorder(), req, nil); !errors.Is(err, ErrBadRequest) || RequestCode(err) != CodeBadRequest {
		t.Fatalf("failed read: %v (code %s), want ErrBadRequest, bad_request", err, RequestCode(err))
	}
	if code := RequestCode(io.ErrUnexpectedEOF); code != CodeInternal {
		t.Fatalf("RequestCode(foreign error) = %s, want internal", code)
	}
}

// TestDecodeJSON: DecodeJSON decodes strictly. An unknown field and
// malformed JSON fail with ErrBadRequest, and a declared length past
// MaxBodyBytes fails with *http.MaxBytesError before a byte is read.
func TestDecodeJSON(t *testing.T) {
	decode := func(body string, declared int64) (ReloadRequest, error) {
		req := httptest.NewRequest(http.MethodPost, "/v1/reload", strings.NewReader(body))
		if declared != 0 {
			req.ContentLength = declared
		}
		var rr ReloadRequest
		err := DecodeJSON(httptest.NewRecorder(), req, &rr)
		return rr, err
	}
	if rr, err := decode(`{"shard":"east","patch_path":"d.patch"}`, 0); err != nil || rr != (ReloadRequest{Shard: "east", PatchPath: "d.patch"}) {
		t.Fatalf("valid body: %+v, %v", rr, err)
	}
	for _, body := range []string{`{"shard":"east","patch_pth":"d.patch"}`, `{"shard":`, ``} {
		if _, err := decode(body, 0); !errors.Is(err, ErrBadRequest) {
			t.Errorf("body %q: %v, want ErrBadRequest", body, err)
		}
	}
	if _, err := decode(`{"shard":"east"}`, MaxBodyBytes+1); !errors.As(err, new(*http.MaxBytesError)) {
		t.Fatalf("declared oversized body: %v, want *http.MaxBytesError", err)
	}
}
