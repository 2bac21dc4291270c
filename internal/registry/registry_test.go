package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"pmuoutage"
	"pmuoutage/api"
)

// testModel trains one small model per process and shares it — training
// dominates test time and the artifact is immutable.
var (
	modelOnce sync.Once
	model     *pmuoutage.Model
	modelErr  error
)

func testModel(t *testing.T) *pmuoutage.Model {
	t.Helper()
	modelOnce.Do(func() {
		model, modelErr = pmuoutage.TrainModel(pmuoutage.Options{
			Case: "ieee14", TrainSteps: 12, Seed: 3, UseDC: true, Workers: 4,
		})
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model
}

func testServer(t *testing.T, dir string) (*Store, *httptest.Server) {
	t.Helper()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(store, nil).Routes())
	t.Cleanup(ts.Close)
	return store, ts
}

// publish POSTs body to the registry's /v1/models and returns the
// response status and body.
func publish(t *testing.T, base string, body io.Reader) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/models", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestPublishGetRoundTrip: an artifact POSTed to /v1/models is stored
// byte-exact under its fingerprint, the reply and GET /v1/models
// report it, and publishing it again is a no-op.
func TestPublishGetRoundTrip(t *testing.T) {
	m := testModel(t)
	store, ts := testServer(t, "")
	var want bytes.Buffer
	if err := m.Encode(&want); err != nil {
		t.Fatal(err)
	}
	status, body := publish(t, ts.URL, bytes.NewReader(want.Bytes()))
	if status != http.StatusCreated {
		t.Fatalf("publish status = %d, want 201: %s", status, body)
	}
	var info api.ModelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Fingerprint != m.Fingerprint() || info.Case != "ieee14" || info.Bytes != int64(want.Len()) {
		t.Fatalf("publish info = %+v", info)
	}
	data, _, err := store.Get(m.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want.Bytes()) {
		t.Fatal("stored bytes differ from the encoded artifact")
	}
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list api.ModelList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 1 || list.Models[0].Fingerprint != m.Fingerprint() {
		t.Fatalf("list = %+v", list)
	}
	// Publishing the same content again is a no-op, not a duplicate.
	if status, body := publish(t, ts.URL, bytes.NewReader(want.Bytes())); status != http.StatusCreated {
		t.Fatalf("repeat publish status = %d, want 201: %s", status, body)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d artifacts after duplicate publish, want 1", store.Len())
	}
}

// TestConditionalPull304: the first pull transfers the artifact; the
// repeat pull revalidates with If-None-Match and the server answers 304
// with no body.
func TestConditionalPull304(t *testing.T) {
	m := testModel(t)
	store, ts := testServer(t, "")
	if _, err := store.Publish(m); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Model(context.Background(), m.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != m.Fingerprint() {
		t.Fatalf("fetched fingerprint %s, want %s", got.Fingerprint(), m.Fingerprint())
	}
	again, err := c.Model(context.Background(), m.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if again != got {
		t.Fatal("repeat pull did not return the cached model")
	}
	pulls, notModified := c.Stats()
	if pulls != 1 || notModified != 1 {
		t.Fatalf("pulls=%d notModified=%d, want 1 and 1", pulls, notModified)
	}

	// The raw HTTP exchange: If-None-Match with the ETag → 304, empty body.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/models/"+m.Fingerprint(), nil)
	req.Header.Set("If-None-Match", `"`+m.Fingerprint()+`"`)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("status = %d, want 304", resp.StatusCode)
	}
	if resp.Header.Get("ETag") != `"`+m.Fingerprint()+`"` {
		t.Fatalf("ETag = %q", resp.Header.Get("ETag"))
	}
}

// TestFingerprintVerifiedOnReceipt: a registry that serves different
// content under a fingerprint is caught by the client.
func TestFingerprintVerifiedOnReceipt(t *testing.T) {
	m := testModel(t)
	var good bytes.Buffer
	if err := m.Encode(&good); err != nil {
		t.Fatal(err)
	}
	// A lying server: valid artifact bytes, but served under a wrong key.
	wrongKey := "0000000000000000000000000000000000000000000000000000000000000000"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(good.Bytes())
	}))
	defer ts.Close()
	c, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Model(context.Background(), wrongKey); !errors.Is(err, ErrMismatch) {
		t.Fatalf("got %v, want ErrMismatch", err)
	}
}

// TestUnknownModel404: fetching a missing fingerprint maps to
// ErrUnknownModel via the server's 404.
func TestUnknownModel404(t *testing.T) {
	_, ts := testServer(t, "")
	c, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	fp := "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
	if _, err := c.Model(context.Background(), fp); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("got %v, want ErrUnknownModel", err)
	}
}

// TestPublishRejectsGarbage: non-artifact bytes answer 400 with the
// bad_model code and do not enter the store.
func TestPublishRejectsGarbage(t *testing.T) {
	store, ts := testServer(t, "")
	resp, err := http.Post(ts.URL+"/v1/models", "application/json", bytes.NewReader([]byte(`{"not":"a model"}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if store.Len() != 0 {
		t.Fatal("garbage entered the store")
	}
}

// zeros reads as an endless run of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestPublishOversizedTooLarge: a publish body one byte past
// api.MaxBodyBytes is refused whole with 413 too_large, the answer the
// router and the daemons give an oversized body, and stores nothing.
func TestPublishOversizedTooLarge(t *testing.T) {
	store, ts := testServer(t, "")
	status, body := publish(t, ts.URL, io.LimitReader(zeros{}, api.MaxBodyBytes+1))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", status, body)
	}
	if env, ok := api.DecodeError(body); !ok || env.Code != api.CodeTooLarge || env.Retryable {
		t.Fatalf("error envelope = %+v (decoded %v), want code too_large, not retryable", env, ok)
	}
	if store.Len() != 0 {
		t.Fatal("an oversized body entered the store")
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestPublishDeclaredOversizedUnread: a publish whose Content-Length
// declares one byte past api.MaxBodyBytes is refused with 413 too_large
// before its body is read: no byte is read and the handler allocates
// under 1 MiB (buffering the body to the bound would allocate about
// 375 MB).
func TestPublishDeclaredOversizedUnread(t *testing.T) {
	store, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(store, nil).Routes()
	body := &countingReader{r: io.LimitReader(zeros{}, api.MaxBodyBytes+1)}
	req := httptest.NewRequest(http.MethodPost, "/v1/models", body)
	req.ContentLength = api.MaxBodyBytes + 1
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", rec.Code, rec.Body)
	}
	if env, ok := api.DecodeError(rec.Body.Bytes()); !ok || env.Code != api.CodeTooLarge {
		t.Fatalf("error envelope = %+v (decoded %v), want code too_large", env, ok)
	}
	if body.n != 0 {
		t.Errorf("read %d body bytes before refusing the declared length", body.n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("refusing a declared oversized publish allocated %d bytes, want under 1 MiB", alloc)
	}
}

// TestDirPersistence: artifacts published into a directory-backed store
// survive a restart, loaded and re-verified from disk.
func TestDirPersistence(t *testing.T) {
	m := testModel(t)
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	info, err := store.Publish(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, info.Fingerprint+artifactSuffix)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("artifact not persisted: %v", err)
	}

	reopened, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 1 {
		t.Fatalf("reopened store holds %d artifacts, want 1", reopened.Len())
	}
	if _, _, err := reopened.Get(info.Fingerprint); err != nil {
		t.Fatal(err)
	}

	// A tampered file fails the reload verification loudly.
	if err := os.WriteFile(path, []byte(`{"broken":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(dir); !errors.Is(err, ErrBadArtifact) {
		t.Fatalf("tampered artifact: got %v, want ErrBadArtifact", err)
	}
}
