//go:build !amd64

package forcefield

// haveLanes is false off amd64: NonbondedCluster and NonbondedClusterTab
// always run their pure-Go loops.
const haveLanes = false

func clusterLanesAVX2(k *laneArgs) { panic("forcefield: lane kernel called without AVX2") }

func clusterTabLanesAVX2(k *laneArgs) { panic("forcefield: lane kernel called without AVX2") }
