package cloud

import (
	"math"
	"strconv"
	"strings"
)

// SeqID is the id of the n-th resource a counter minted: prefix, then n in
// decimal zero-padded to width digits — fmt.Sprintf(prefix+"%0*d", width,
// n) for n ≥ 0, in one allocation instead of two. cloudsim mints its
// instance and volume ids this way and the controller its nested VMs', so
// each keeps its records in a table indexed by n and hashes no id.
func SeqID(prefix string, width, n int) string {
	var buf [32]byte // the longest prefix ("nvm-", "vol-") and 19 digits fit
	b := append(buf[:0], prefix...)
	digits := 1
	for m := n; m >= 10; m /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(n), 10))
}

// ParseSeqID is SeqID's strict inverse: the n for which SeqID(prefix,
// width, n) is id, byte for byte. Anything else — another prefix, a
// non-digit, fewer than width digits, a zero-padded longer number, a number
// past int — is not an id the counter could have minted, and reports false.
func ParseSeqID(prefix string, width int, id string) (int, bool) {
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	digits := id[len(prefix):]
	if len(digits) < width || (len(digits) > width && digits[0] == '0') {
		return 0, false
	}
	n := 0
	for i := 0; i < len(digits); i++ {
		d := int(digits[i]) - '0'
		if d < 0 || d > 9 || n > (math.MaxInt-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}
