package analysis

// IgnoreAudit keeps the suppression ledger honest. An ignore directive
// is a standing exception to the gate, and exceptions rot: the code
// they excused gets rewritten and the directive lingers, silently ready
// to swallow the next real finding on that line. When this analyzer is
// selected, RunPackage flags every directive that suppressed nothing on
// the current tree (stale). That needs the other analyzers' results, so
// the audit lives in the runner and Run itself does nothing. Missing
// reasons are rejected by the directive parser. Intentionally kept
// directives are annotated //gridlint:ignore ignoreaudit <reason>.
var IgnoreAudit = &Analyzer{
	Name: "ignoreaudit",
	Doc:  "flag ignore directives that no longer suppress anything",
	Run:  func(*Pass) error { return nil },
}
