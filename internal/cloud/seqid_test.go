package cloud

import (
	"fmt"
	"testing"
)

// SeqID must be the Sprintf it stands for at every width its minters use
// (the controller's five-digit VM ids, the platform's six-digit instance
// and volume ids), and ParseSeqID must read back exactly what it minted.
func TestSeqIDMatchesSprintf(t *testing.T) {
	for _, c := range []struct {
		prefix string
		width  int
	}{{"nvm-", 5}, {"i-", 6}, {"vol-", 6}} {
		for _, n := range []int{0, 1, 9, 10, 9_999, 10_000, 99_999, 100_000, 999_999, 1_000_000, 123_456_789} {
			id := SeqID(c.prefix, c.width, n)
			if want := fmt.Sprintf("%s%0*d", c.prefix, c.width, n); id != want {
				t.Errorf("SeqID(%q, %d, %d) = %q, want %q", c.prefix, c.width, n, id, want)
			}
			if got, ok := ParseSeqID(c.prefix, c.width, id); !ok || got != n {
				t.Errorf("ParseSeqID(%q, %d, %q) = %d, %v; want %d", c.prefix, c.width, id, got, ok, n)
			}
		}
	}
	for _, bad := range []string{"nvm-0001", "nvm-000001", "nvm-0001x", "i-00001", "nvm-", ""} {
		if n, ok := ParseSeqID("nvm-", 5, bad); ok {
			t.Errorf("ParseSeqID(nvm-, 5, %q) accepted as %d", bad, n)
		}
	}
}
