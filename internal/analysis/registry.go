package analysis

// All returns every registered analyzer, in stable output order.
func All() []*Analyzer {
	return []*Analyzer{
		AllocFree,
		ApiErr,
		CtxFlow,
		DimCheck,
		ErrCheck,
		FloatCmp,
		GlobalRand,
		IgnoreAudit,
		LockSmell,
		MetricName,
		ModelIO,
		Units,
	}
}
