package analyze

// All returns every analyzer of the suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AbortOnErr,
		AtomicArtifact,
		CondWaitLoop,
		DetPurity,
		FloatEq,
		IgnoreAudit,
		Knob,
		PoolDisjoint,
		Pow2Stride,
		Reach,
		RunWithDeadline,
		SpanEnd,
		TypedErr,
	}
}
