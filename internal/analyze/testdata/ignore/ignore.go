// Package ignore exercises the //yyvet:ignore directive forms: trailing
// same-line, own-line-above, multi-analyzer lists, and the non-cases
// (wrong analyzer name, directive too far away).
package ignore

func trailingSameLine(a, b float64) bool {
	return a == b //yyvet:ignore float-eq fixture: suppressed on the same line
}

func ownLineAbove(a, b float64) bool {
	//yyvet:ignore float-eq fixture: suppressed from the line above
	return a == b
}

func multiAnalyzerList(a, b float64) bool {
	//yyvet:ignore pow2-stride,float-eq fixture: second name in the list applies
	return a == b
}

func wrongAnalyzerName(a, b float64) bool {
	//yyvet:ignore cond-wait-loop fixture: names a different analyzer
	return a == b // want "floating-point values compared with =="
}

func directiveTooFarAway(a, b float64) bool {
	//yyvet:ignore float-eq fixture: a blank line breaks the adjacency

	return a == b // want "floating-point values compared with =="
}
