// Package ignoreaudit is the golden fixture for the ignoreaudit
// analyzer, run together with floatcmp so directives have real findings
// to match (or fail to match).
package ignoreaudit

// live: the directive suppresses a real floatcmp finding — not stale.
func live(a, b float64) bool {
	return a == b //gridlint:ignore floatcmp exact equality intended in this fixture
}

// typo: the named analyzer does not exist, so the directive can never
// match anything and the finding it meant to hide surfaces.
func typo(a, b float64) bool {
	//gridlint:ignore floatcomp misspelled analyzer name
	return a == b // want `floating-point == comparison`
}

// stale: the code below no longer trips floatcmp (integers), so the
// directive suppresses nothing on the current tree.
func stale(a, b int) bool {
	//gridlint:ignore floatcmp nothing left to suppress // want `stale ignore directive: no floatcmp finding here to suppress on the current tree`
	return a == b
}

// kept: a deliberately retained directive, excused from the audit with
// an ignoreaudit directive — the annotate-don't-delete escape hatch.
func kept(a, b int) bool {
	//gridlint:ignore ignoreaudit retained as a documented example
	//gridlint:ignore floatcmp kept deliberately for the example above
	return a == b
}
