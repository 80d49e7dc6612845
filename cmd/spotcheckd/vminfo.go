package main

import (
	"log"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
)

// writeVMInfos answers GET /servers: vms as the bytes an encoding/json
// Encoder with SetIndent("", "  ") writes, appended by hand instead of by
// reflection and never held whole. Each VM is appended to a pooled buffer,
// which goes to the client every time it passes indentChunk, so a 2 000-VM
// list costs one 64 KB buffer, not a body-sized one.
func writeVMInfos(w http.ResponseWriter, vms []core.VMInfo) {
	jw := startVMBody(w)
	defer jsonWriters.Put(jw)
	buf := jw.buf[:0]
	switch {
	case vms == nil:
		buf = append(buf, "null"...)
	case len(vms) == 0:
		buf = append(buf, "[]"...)
	default:
		buf = append(buf, '[')
		for i := range vms {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendNewline(buf, 1)
			buf = appendVMInfo(buf, &vms[i], 1)
			if len(buf) >= indentChunk {
				if !jw.flush(buf) {
					return
				}
				buf = buf[:0]
			}
		}
		buf = append(buf, "\n]"...)
	}
	jw.flush(append(buf, '\n'))
}

// writeVMInfo answers GET /servers/{id} with the same encoding at depth 0.
func writeVMInfo(w http.ResponseWriter, v core.VMInfo) {
	jw := startVMBody(w)
	defer jsonWriters.Put(jw)
	jw.flush(append(appendVMInfo(jw.buf[:0], &v, 0), '\n'))
}

// startVMBody commits a 200 JSON response and lends out a pooled buffer.
// A VMInfo always encodes, so there is no error status to hold back for.
func startVMBody(w http.ResponseWriter) *jsonWriter {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	jw := jsonWriters.Get().(*jsonWriter)
	*jw = jsonWriter{w: w, buf: jw.buf}
	return jw
}

// flush writes buf to the client and keeps it for the pool; false means
// the client is gone and the rest of the body can be dropped.
func (jw *jsonWriter) flush(buf []byte) bool {
	jw.buf = buf
	if _, err := jw.w.Write(buf); err != nil {
		log.Printf("spotcheckd: write: %v", err)
		return false
	}
	return true
}

// appendVMInfo appends v as encoding/json indents a VMInfo whose '{' sits
// at depth: its Go field names in declaration order, one per line at
// depth+1. Nothing in a VMInfo can fail to encode: Availability is finite
// by construction (Ledger.Availability is 1 for an empty interval and
// 1 − down/total otherwise), so there is no error path.
func appendVMInfo(dst []byte, v *core.VMInfo, depth int) []byte {
	field := func(dst []byte, name string) []byte {
		dst = appendNewline(dst, depth+1)
		return append(append(dst, name...), ": "...)
	}
	dst = append(dst, '{')
	dst = appendJSONString(field(dst, `"ID"`), string(v.ID))
	dst = appendJSONString(field(append(dst, ','), `"Customer"`), v.Customer)
	dst = appendJSONString(field(append(dst, ','), `"Type"`), v.Type)
	dst = appendJSONString(field(append(dst, ','), `"Phase"`), v.Phase)
	dst = appendJSONString(field(append(dst, ','), `"Host"`), string(v.Host))
	dst = appendJSONString(field(append(dst, ','), `"HostType"`), v.HostType)
	dst = appendJSONString(field(append(dst, ','), `"Market"`), v.Market)
	dst = appendJSONString(field(append(dst, ','), `"IP"`), v.IP)
	dst = appendJSONString(field(append(dst, ','), `"BackupServer"`), v.BackupServer)
	dst = strconv.AppendInt(field(append(dst, ','), `"Migrations"`), int64(v.Migrations), 10)
	dst = strconv.AppendInt(field(append(dst, ','), `"Revocations"`), int64(v.Revocations), 10)
	dst = appendJSONFloat(field(append(dst, ','), `"Availability"`), v.Availability)
	dst = appendJSONString(field(append(dst, ','), `"Condition"`), v.Condition)
	dst = appendNewline(dst, depth)
	return append(dst, '}')
}

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// 'f' format, or 'e' outside [1e-6, 1e21) with a one-digit exponent's
// leading zero dropped (e-07 → e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// verbatim with HTML escaping on: printable, and none of " \ < > &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

// appendJSONString appends s quoted as encoding/json writes it with HTML
// escaping on: " and \ backslash-escaped; \b \f \n \r \t by name; other
// control bytes and < > & as \u00XX; each invalid UTF-8 byte as \ufffd;
// U+2028 and U+2029 as \u2028 and \u2029.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
