// Package lib holds the config fields the knob fixture program sets,
// next to the ones knob must flag.
package lib

import "sync/atomic"

// Config is a library struct whose exported fields are knobs.
type Config struct {
	Keyed     int
	Addressed int
	Slots     [2]int
	Buf       []byte
	Count     atomic.Int64
	Unset     int // want "Config.Unset is set by no program"
	Defaulted int // want "Config.Defaulted is set by no program beyond its own default"
	Lo, Hi    int // want "Config.Lo is set by no program" "Config.Hi is set by no program beyond its own default"
	TestOnly  int // want "Config.TestOnly is set by no program; only tests set it: lib_test.go"
	//yyvet:ignore knob TestExempt sets it to reach its verdict
	Exempt int
	hidden int
}

// WithDefaults fills the defaults: a zero test and a clamp, neither of
// which sets anything.
func (c Config) WithDefaults() Config {
	if c.Defaulted <= 0 {
		c.Defaulted = 4
	}
	if c.Hi < c.Lo {
		c.Hi = c.Lo
	}
	c.hidden = c.Unset + c.TestOnly + c.Exempt
	return c
}

// NodeID is written only positionally.
type NodeID struct{ J, K int }

// Scenario is written only by encoding/json.
type Scenario struct{ Name string }

// Report is written only by an increment and under a condition that is
// not a default.
type Report struct{ Max, Seen int }
