//go:build race

package core

// raceBuild reports a -race build: the race runtime makes sync.Pool drop
// items at random (fmt's buffers among them), so exact malloc pins skip.
const raceBuild = true
