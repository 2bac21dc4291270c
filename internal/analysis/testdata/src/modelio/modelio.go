// Package modelio is golden-test input for the modelio analyzer: it
// declares a struct named Model, which makes every module-internal
// struct reachable through its fields part of the serialized artifact
// surface. With Module unset in golden tests, "module-internal" means
// this package only.
package modelio

import "time"

// Model is the serialization root the analyzer keys on. Its embedded
// Extra field is exempt (encoding/json inlines embedded structs), but
// Extra's own fields are still checked.
type Model struct {
	Extra
	Version int           `json:"format_version"`
	Name    string        // want `exported field Model\.Name is serialized via modelio\.Model but has no json tag`
	Ignored string        `json:"-"`
	Grid    *Topology     `json:"grid"`
	Bases   []Basis       `json:"bases"`
	ByLine  map[int]Basis `json:"by_line"`
	Stamp   time.Time     // want `exported field Model\.Stamp is serialized via modelio\.Model but has no json tag`
	hidden  internalState // unexported: no tag needed, but the type is still traversed
}

// Extra is reached by embedding.
type Extra struct {
	Note string // want `exported field Extra\.Note is serialized via modelio\.Model but has no json tag`
}

// Topology is reachable via a pointer field. time.Time fields above are
// flagged at the Model field, but time.Time's own internals are outside
// the module and never traversed.
type Topology struct {
	Buses []Bus `json:"buses"`
	N     int   // want `exported field Topology\.N is serialized via modelio\.Model but has no json tag`
}

// Bus is reachable via a slice inside a reachable struct; fully tagged,
// no findings.
type Bus struct {
	ID   int     `json:"id"`
	Load float64 `json:"load"`
}

// Basis is reachable both via a slice and as a map value; the analyzer
// must report its untagged field exactly once.
type Basis struct {
	Cols [][]float64 `json:"cols"`
	Rank int         // want `exported field Basis\.Rank is serialized via modelio\.Model but has no json tag`
}

// internalState is reached only through an unexported field of Model;
// its exported fields still hit the wire when the artifact round-trips
// through a marshal of the containing representation.
type internalState struct {
	Epoch uint64 // want `exported field internalState\.Epoch is serialized via modelio\.Model but has no json tag`
	count int
}

// Unreachable never appears in Model's closure: untagged exported
// fields here are not findings.
type Unreachable struct {
	Whatever string
}
