//go:build !race

package experiments

const raceBuild = false
