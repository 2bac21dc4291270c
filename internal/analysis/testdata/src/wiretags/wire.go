// Package api is golden-test input for the wiretags rule: the
// package name puts every exported struct on the HTTP wire surface, so
// every exported, non-embedded field must pin its name with a json tag.
package api

// DetectRequest is fully tagged: no findings.
type DetectRequest struct {
	Shard   string    `json:"shard"`
	Samples []float64 `json:"samples"`
}

// ShardStatus mixes tagged, untagged, and excluded fields.
type ShardStatus struct {
	Name  string `json:"name"`
	State string // want `exported field ShardStatus\.State is a wire type of package api but has no json tag`
	Local string `json:"-"`
	depth int    // unexported: exempt
}

// Envelope embeds another wire struct; the embedded field itself is
// exempt (encoding/json inlines it) but its own fields are checked at
// their declaration.
type Envelope struct {
	ShardStatus
	TraceID string // want `exported field Envelope\.TraceID is a wire type of package api but has no json tag`
}

// Code is not a struct: ignored by the rule.
type Code string

// helper is unexported: its fields are not wire surface.
type helper struct {
	Internal string
}
