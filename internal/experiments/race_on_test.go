//go:build race

package experiments

// raceBuild reports a -race build: the race runtime changes what the heap
// holds, so heap-size pins skip.
const raceBuild = true
