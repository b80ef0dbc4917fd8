package mhd

import (
	"fmt"

	"repro/internal/perfcount"
)

// Integrator selects the time scheme. The paper uses the classical
// fourth-order Runge-Kutta method; the cheaper schemes exist for
// step-cost/accuracy ablations and for testing the temporal order
// machinery itself.
type Integrator int

const (
	// RK4 is the classical fourth-order Runge-Kutta scheme (the paper's
	// choice and the zero-value default).
	RK4 Integrator = iota
	// RK2 is the midpoint method (second order).
	RK2
	// Euler is the forward Euler method (first order).
	Euler
)

// String names the scheme.
func (in Integrator) String() string {
	switch in {
	case RK4:
		return "RK4"
	case RK2:
		return "RK2"
	case Euler:
		return "Euler"
	}
	return fmt.Sprintf("Integrator(%d)", int(in))
}

// schemeStage describes one stage of a low-storage scheme: evaluate the
// right-hand side k at the current U, accumulate accCoeff*k, and (unless
// it is the last stage) rebuild U = u0 + stepCoeff*dt*k.
type schemeStage struct {
	stepCoeff float64
	accCoeff  float64
}

var (
	rk4Stages   = [...]schemeStage{{0.5, 1}, {0.5, 2}, {1, 2}, {0, 1}}
	rk2Stages   = [...]schemeStage{{0.5, 0}, {0, 1}} // midpoint: u = u0 + dt k(u0 + dt/2 k1)
	eulerStages = [...]schemeStage{{0, 1}}
)

// stages returns the stage table and the final accumulator weight so
// that U_final = u0 + finalCoeff*dt*acc.
func (in Integrator) stages() (tbl []schemeStage, finalCoeff float64) {
	switch in {
	case RK4:
		return rk4Stages[:], 1.0 / 6.0
	case RK2:
		return rk2Stages[:], 1
	default:
		return eulerStages[:], 1
	}
}

// Advance performs one step of size dt on the panels, the one stage loop
// of both the serial solver and a decomposed rank. For every stage, rhs
// must evaluate the right-hand side at pl.U into k without modifying
// pl.U; constrain then re-imposes the boundary conditions on every
// panel's U. For RK4:
//
//	k1 = R(u0)            u <- u0 + dt/2 k1
//	k2 = R(u)             u <- u0 + dt/2 k2
//	k3 = R(u)             u <- u0 + dt   k3
//	k4 = R(u)             u <- u0 + dt/6 (k1 + 2 k2 + 2 k3 + k4)
func (in Integrator) Advance(dt float64, pls []*Panel, rhs func(pl *Panel, k *State), constrain func()) {
	stages, finalCoeff := in.stages()
	last := len(stages) - 1
	for si, stg := range stages {
		c := stg.stepCoeff * dt
		if si == last {
			c = finalCoeff * dt
		}
		for _, pl := range pls {
			rhs(pl, &pl.k)
			pl.combine(si == 0, si == last, stg.accCoeff, c)
		}
		constrain()
	}
}

// combine is one stage's update after k holds its right-hand side, in a
// single pass over the full padded arrays:
//
//	first stage:  u0 = U, acc = 0*u0 + 0*u0 + a*k
//	later stages: acc += a*k
//	then:         U = u0 + c*k, or U = u0 + c*acc on the last stage
//
// Every element sees the operations of the separate copy, seed,
// accumulate, copy and add sweeps this pass replaces, in their order —
// the seed's signed zeros included — so the bits are theirs, and the
// counters are charged what those sweeps charged. The last stage does
// not store acc: nothing reads it before the next step reseeds it.
func (pl *Panel) combine(first, last bool, a, c float64) {
	us, u0s, ks, accs := pl.U.Scalars(), pl.u0.Scalars(), pl.k.Scalars(), pl.acc.Scalars()
	for v := range us {
		u := us[v].Data
		u0, k, acc := u0s[v].Data[:len(u)], ks[v].Data[:len(u)], accs[v].Data[:len(u)]
		switch {
		case first && last:
			for i, x := range u {
				u0[i] = x
				u[i] = x + c*(0*x+0*x+a*k[i])
			}
		case first:
			for i, x := range u {
				u0[i] = x
				acc[i] = 0*x + 0*x + a*k[i]
				u[i] = x + c*k[i]
			}
		case last:
			for i := range u {
				u[i] = u0[i] + c*(acc[i]+a*k[i])
			}
		default:
			for i := range u {
				acc[i] += a * k[i]
				u[i] = u0[i] + c*k[i]
			}
		}
	}
	// Two-flop accumulate and add sweeps, plus the three-flop seed.
	flops, sweeps := int64(4), int64(2)
	if first {
		flops, sweeps = 7, 3
	}
	nrP, _, _ := pl.Patch.Padded()
	n := int64(len(us)) * int64(len(pl.U.Rho.Data))
	rows := n / int64(nrP)
	perfcount.AddFlops(n * flops)
	perfcount.AddVectorLoops(rows*sweeps, n*sweeps)
}
