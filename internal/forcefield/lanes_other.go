//go:build !amd64

package forcefield

// haveLanes is false off amd64: NonbondedCluster always runs the
// pure-Go loop.
const haveLanes = false

func clusterLanesAVX2(k *laneArgs) { panic("forcefield: lane kernel called without AVX2") }
