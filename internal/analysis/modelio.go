package analysis

import (
	"go/types"
	"reflect"
)

// ModelIO guards the serving API's wire format (DESIGN.md "Fleet
// serving"): in a package named api every exported struct is an HTTP
// request or response body, so every exported, non-embedded field must
// pin its wire name with a json tag. An untagged field serializes under
// its Go identifier, so a later rename silently breaks deployed
// clients; `json:"-"` records an exclusion explicitly. (The model
// artifact's own encoding is pinned by the golden fingerprint tests.)
var ModelIO = &Analyzer{
	Name: "modelio",
	Doc:  "exported fields of the api package's wire structs must carry json tags",
	Run:  runModelIO,
}

func runModelIO(pass *Pass) error {
	if pass.Pkg.Name() != "api" {
		return nil
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || !tn.Exported() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() || f.Embedded() {
				continue
			}
			if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
				continue
			}
			pass.Report(f.Pos(), "exported field %s.%s is a wire type of package %s but has no json tag; untagged fields pin the wire name to the Go identifier, so a rename silently breaks deployed clients",
				name, f.Name(), pass.Pkg.Name())
		}
	}
	return nil
}
