package httpserve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/internal/obs"
	"pmuoutage/internal/service"
)

func postDetect(t *testing.T, base string, req api.DetectRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getTraces(t *testing.T, base, query string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestTracingByteIdentity is the acceptance pin: the same detect
// request against a traced server and an untraced twin (same artifact)
// answers byte-identical bodies — tracing is observational only.
func TestTracingByteIdentity(t *testing.T) {
	m, err := pmuoutage.TrainModel(trainOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	_, tsOff := newModelServer(t, m, nil)
	svcOn, tsOn := newModelServer(t, m, func(cfg *service.Config) {
		cfg.Tracer = obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	})
	sys := waitShardReady(t, svcOn, "east")
	samples := outageTrace(t, sys, 6)

	req := api.DetectRequest{Shard: "east", Samples: samples}
	respOff, bodyOff := postDetect(t, tsOff.URL, req)
	respOn, bodyOn := postDetect(t, tsOn.URL, req)
	if respOff.StatusCode != http.StatusOK || respOn.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d/%d, want 200/200\noff: %s\non: %s",
			respOff.StatusCode, respOn.StatusCode, bodyOff, bodyOn)
	}
	if !bytes.Equal(bodyOff, bodyOn) {
		t.Fatalf("detect responses differ with tracing on vs off:\noff: %s\non:  %s", bodyOff, bodyOn)
	}
	if respOff.Header.Get(obs.SpanHeader) != "" {
		t.Fatal("untraced server must not emit X-Span-Id")
	}
	if respOn.Header.Get(obs.SpanHeader) == "" {
		t.Fatal("traced server must echo X-Span-Id")
	}
}

// TestDebugTracesEndpoint drives one traced request end to end and
// checks the retained trace: fetchable by list and by ID, spans cover
// the http/queue/coalesce/detect/encode stages, the root span is the
// one echoed in X-Span-Id, and unknown IDs answer a not_found envelope.
func TestDebugTracesEndpoint(t *testing.T) {
	m, err := pmuoutage.TrainModel(trainOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newModelServer(t, m, func(cfg *service.Config) {
		cfg.Tracer = obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	})
	sys := waitShardReady(t, svc, "east")
	resp, body := postDetect(t, ts.URL, api.DetectRequest{Shard: "east", Samples: outageTrace(t, sys, 4)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect: %d %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get(obs.TraceHeader)
	spanID := resp.Header.Get(obs.SpanHeader)

	// The trace finalizes when the root span ends, which races the
	// response write by a hair — poll briefly.
	var tr api.Trace
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, raw := getTraces(t, ts.URL, "?id="+traceID)
		if status == http.StatusOK {
			if err := json.Unmarshal(raw, &tr); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never retained: %d %s", traceID, status, raw)
		}
		time.Sleep(5 * time.Millisecond)
	}

	stages := map[string]api.TraceSpan{}
	for _, s := range tr.Spans {
		stages[s.Stage] = s
	}
	for _, want := range []string{"http", "queue", "coalesce", "detect", "encode"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("trace missing %q stage span; have %v", want, tr.Spans)
		}
	}
	root := stages["http"]
	if !root.Root || root.ID != spanID {
		t.Fatalf("root span %+v, want root with ID %s (the X-Span-Id echo)", root, spanID)
	}
	for _, stage := range []string{"queue", "coalesce", "detect", "encode"} {
		if got := stages[stage].Parent; got != root.ID {
			t.Errorf("%s span parent = %q, want root %q", stage, got, root.ID)
		}
	}

	// List form contains the same trace.
	status, raw := getTraces(t, ts.URL, "")
	if status != http.StatusOK {
		t.Fatalf("trace list: %d %s", status, raw)
	}
	var list api.TraceList
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, item := range list.Traces {
		if item.TraceID == traceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s absent from list of %d", traceID, len(list.Traces))
	}

	// Unknown IDs answer the not_found code.
	status, raw = getTraces(t, ts.URL, "?id=ffffffffffffffff")
	if status != http.StatusNotFound {
		t.Fatalf("unknown trace: %d %s, want 404", status, raw)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Code != api.CodeNotFound {
		t.Fatalf("unknown trace envelope = %s (err %v), want code not_found", raw, err)
	}
}
