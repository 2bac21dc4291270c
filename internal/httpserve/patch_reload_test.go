package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/internal/registry"
	"pmuoutage/internal/service"
)

// postReload posts one reload body and decodes the response.
func postReload(t *testing.T, base string, req api.ReloadRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestReloadByPatch drives the incremental-update path over the wire:
// POST /v1/reload with patch_path swaps the shard onto the patched
// model, a second apply is refused with the patch_base code (the base
// is gone), and ambiguous or unreadable requests answer 400.
func TestReloadByPatch(t *testing.T) {
	m, err := pmuoutage.TrainModel(trainOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newModelServer(t, m, nil)

	baseSys, err := pmuoutage.NewSystemFromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pmuoutage.TrainModelPatch(m, pmuoutage.PatchSpec{Lines: baseSys.ValidLines()[:2], Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "delta.patch.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	status, body := postReload(t, ts.URL, api.ReloadRequest{Shard: "east", PatchPath: path})
	if status != http.StatusOK {
		t.Fatalf("patch reload: status %d, body %s", status, body)
	}
	var res api.ReloadResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Model != p.ResultFingerprint() {
		t.Fatalf("shard serves %s after patch reload, want %s", res.Model, p.ResultFingerprint())
	}

	t.Run("base gone", func(t *testing.T) {
		status, body := postReload(t, ts.URL, api.ReloadRequest{Shard: "east", PatchPath: path})
		if status != http.StatusConflict {
			t.Fatalf("status %d, body %s", status, body)
		}
		if env, ok := api.DecodeError(body); !ok || env.Code != api.CodePatchBase {
			t.Fatalf("error envelope %s, want code %s", body, api.CodePatchBase)
		}
	})
	t.Run("ambiguous sources", func(t *testing.T) {
		status, body := postReload(t, ts.URL,
			api.ReloadRequest{Shard: "east", PatchPath: path, Path: "m.json"})
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, body %s", status, body)
		}
	})
	t.Run("missing file", func(t *testing.T) {
		status, body := postReload(t, ts.URL,
			api.ReloadRequest{Shard: "east", PatchPath: filepath.Join(t.TempDir(), "nope.json")})
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, body %s", status, body)
		}
	})
	t.Run("corrupt patch", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "bad.patch.json")
		if err := os.WriteFile(bad, []byte(`{"format_version":1}`), 0o600); err != nil {
			t.Fatal(err)
		}
		status, body := postReload(t, ts.URL, api.ReloadRequest{Shard: "east", PatchPath: bad})
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, body %s", status, body)
		}
		if env, ok := api.DecodeError(body); !ok || env.Code != api.CodeBadPatch {
			t.Fatalf("error envelope %s, want code %s", body, api.CodeBadPatch)
		}
	})
}

// TestReloadRegistryUnreachable: a reload by fingerprint while the
// registry cannot be reached answers 503 unavailable, retryable, with
// Retry-After: 1, the envelope every retryable code carries.
func TestReloadRegistryUnreachable(t *testing.T) {
	m, err := pmuoutage.TrainModel(trainOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(context.Background(), service.Config{Shards: []service.ShardSpec{{Name: "east", Model: m}}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	reg, err := registry.NewClient(gone.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	hs := New(svc, 30*time.Second, nil)
	hs.SetModelSource(reg)
	body, err := json.Marshal(api.ReloadRequest{Shard: "east", Fingerprint: m.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	hs.Routes().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reload", bytes.NewReader(body)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", rec.Code, rec.Body.Bytes())
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}
	if env, ok := api.DecodeError(rec.Body.Bytes()); !ok || env.Code != api.CodeUnavailable || !env.Retryable {
		t.Errorf("error envelope = %+v (decoded %v), want code unavailable, retryable", env, ok)
	}
}
