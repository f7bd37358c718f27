//go:build amd64

package vec

import "os"

// cpuid executes the CPUID instruction (cpu_amd64.s).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register index (cpu_amd64.s). Only valid
// when CPUID reports OSXSAVE.
func xgetbv(index uint32) (eax, edx uint32)

// hasAVX2 is resolved once at startup; kernel dispatch must not change
// mid-run, or sums computed before and after would mix code paths.
var hasAVX2 = detectAVX2()

// HasAVX2 reports whether the AVX2 kernels are active: the CPU supports
// AVX2, the OS saves YMM state, and GODEBUG=cpu.avx2=off was not set at
// startup. The stdlib honors the same GODEBUG key for its own vector
// code, so one environment setting pins the whole process to the
// portable Go kernels — how CI exercises the fallback on AVX2 hosts.
func HasAVX2() bool { return hasAVX2 }

func detectAVX2() bool {
	if godebugDisables(os.Getenv("GODEBUG"), "cpu.avx2") {
		return false
	}
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		osxsaveBit = 1 << 27 // CPUID.1:ECX.OSXSAVE
		avxBit     = 1 << 28 // CPUID.1:ECX.AVX
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// The OS must context-switch both XMM and YMM state (XCR0 bits 1,2),
	// or executing VEX-256 instructions faults.
	if xlo, _ := xgetbv(0); xlo&0x6 != 0x6 {
		return false
	}
	const avx2Bit = 1 << 5 // CPUID.(7,0):EBX.AVX2
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2Bit != 0
}
