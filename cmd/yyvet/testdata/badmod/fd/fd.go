// Package fd is the known-bad smoke fixture for the pow2-stride (hot
// package name) and float-eq analyzers.
package fd

func pow2Column() []float64 {
	return make([]float64, 256) // pow2-stride should fire here
}

func exactCompare(a, b float64) bool {
	return a == b // float-eq should fire here
}

func staleSuppression() []float64 {
	//yyvet:ignore float-eq nothing on the next line compares floats
	return make([]float64, 257) // ignore-audit: the directive suppresses nothing
}

// The seeds are live: reach roots initialized package vars.
var _ = []any{pow2Column, exactCompare, staleSuppression}
