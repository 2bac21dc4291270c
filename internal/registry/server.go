package registry

import (
	"errors"
	"log/slog"
	"net/http"
	"strings"

	"pmuoutage/api"
	"pmuoutage/internal/obs"
)

// Server serves a Store over HTTP:
//
//	GET  /healthz                   liveness
//	GET  /v1/models                 api.ModelList, publish order
//	GET  /v1/models/{fingerprint}   the artifact bytes; ETag is the
//	                                fingerprint, If-None-Match → 304
//	POST /v1/models                 publish an encoded artifact
type Server struct {
	store *Store
	log   *slog.Logger
}

// NewServer wraps the store. A nil logger disables logging.
func NewServer(store *Store, logger *slog.Logger) *Server {
	return &Server{store: store, log: logger}
}

// Routes builds the registry's handler.
func (s *Server) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/models", s.handleList)
	mux.HandleFunc("GET /v1/models/{fingerprint}", s.handleGet)
	mux.HandleFunc("POST /v1/models", s.handlePublish)
	return mux
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, s.store.List())
}

// handleGet serves one artifact. The ETag is the content fingerprint —
// identical to the path key — so a client that already holds the bytes
// revalidates for free: If-None-Match with the fingerprint's ETag (or
// "*") answers 304 with no body. Content under a fingerprint is
// immutable, which the Cache-Control header states outright.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	data, info, err := s.store.Get(fp)
	if err != nil {
		s.writeError(w, r, api.CodeUnknownModel, err)
		return
	}
	etag := `"` + info.Fingerprint + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	if match := r.Header.Get("If-None-Match"); matchesETag(match, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handlePublish stores one artifact body read with api.ReadBody, the
// serving tier's one body bound: a larger body is refused whole with
// too_large, as the router and the daemons refuse it.
func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	data, err := api.ReadBody(w, r, nil)
	if err != nil {
		s.writeError(w, r, api.RequestCode(err), err)
		return
	}
	info, err := s.store.PublishBytes(data)
	if err != nil {
		code := api.CodeBadModel
		if !errors.Is(err, ErrBadArtifact) {
			code = api.CodeInternal
		}
		s.writeError(w, r, code, err)
		return
	}
	if s.log != nil {
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "artifact published",
			slog.String(obs.AttrComponent, "registry"),
			slog.String("fingerprint", info.Fingerprint),
			slog.String("case", info.Case),
			slog.Int64("bytes", info.Bytes))
	}
	api.WriteJSON(w, http.StatusCreated, info)
}

// matchesETag implements the subset of If-None-Match the registry's
// own client sends: "*" or a comma-separated list of (possibly weak)
// entity tags.
func matchesETag(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == etag {
			return true
		}
	}
	return false
}

// writeError emits the shared error envelope with the code's status.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, code api.Code, err error) {
	api.WriteError(w, code, err.Error(), r.Header.Get(obs.TraceHeader))
}
