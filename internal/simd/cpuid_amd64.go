//go:build amd64 && !purego

package simd

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// AVX2 selects the 4-lane AVX2 bodies of the numeric kernels. It is
// set from probeAVX2 and never changed outside tests, which clear it to
// run the Go loops the bodies mirror.
var AVX2 = probeAVX2()

// probeAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM state across context switches: CPUID.1:ECX
// carries OSXSAVE (bit 27) and AVX (bit 28), XCR0 enables the SSE and
// AVX state (bits 1 and 2), and CPUID.(7,0):EBX carries AVX2 (bit 5).
func probeAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<27) == 0 || ecx1&(1<<28) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
