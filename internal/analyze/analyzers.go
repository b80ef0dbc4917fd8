package analyze

// All returns every analyzer of the suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AbortOnErr,
		AtomicArtifact,
		BufLifetime,
		CondWaitLoop,
		DetPurity,
		FloatEq,
		IgnoreAudit,
		IrecvWait,
		Knob,
		OverlapOrder,
		PoolDisjoint,
		Pow2Stride,
		Reach,
		RunWithDeadline,
		SpanEnd,
		TagSpace,
		TypedErr,
	}
}
