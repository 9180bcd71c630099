package forcefield

// haveLanes reports AVX2 with the OS saving YMM state, read once from
// CPUID/XGETBV at package init.
var haveLanes = cpuHasAVX2()

// clusterLanesAVX2 runs the analytic lane kernel over the entry run
// k.ent[:k.nent] of one staged i-cluster (lanes_amd64.s).
//
//go:noescape
func clusterLanesAVX2(k *laneArgs)

// clusterTabLanesAVX2 is clusterLanesAVX2 for the table lane kernel.
//
//go:noescape
func clusterTabLanesAVX2(k *laneArgs)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func cpuHasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
