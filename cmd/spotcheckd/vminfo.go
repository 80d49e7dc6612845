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
	jw := startBody(w)
	defer jsonWriters.Put(jw)
	if buf, ok := appendList(jw, jw.buf[:0], vms, 0, appendVMInfo); ok {
		jw.flush(append(buf, '\n'))
	}
}

// writeVMInfo answers GET /servers/{id} with the same encoding at depth 0.
func writeVMInfo(w http.ResponseWriter, v core.VMInfo) {
	jw := startBody(w)
	defer jsonWriters.Put(jw)
	jw.flush(append(appendVMInfo(jw.buf[:0], &v, 0), '\n'))
}

// startBody commits a 200 JSON response and lends out a pooled buffer.
// The hand-appended bodies always encode, so there is no error status to
// hold back for.
func startBody(w http.ResponseWriter) *jsonWriter {
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

// appendList appends items as encoding/json indents a slice whose '[' sits
// at depth, each element appended by appendItem at depth+1: "null" for a
// nil slice, "[]" for an empty one. Each time buf passes indentChunk it
// goes to the client, and appending starts over at buf[:0]. It returns
// what is left to send, or false once the client is gone.
func appendList[T any](jw *jsonWriter, buf []byte, items []T, depth int, appendItem func([]byte, *T, int) []byte) ([]byte, bool) {
	switch {
	case items == nil:
		return append(buf, "null"...), true
	case len(items) == 0:
		return append(buf, "[]"...), true
	}
	buf = append(buf, '[')
	for i := range items {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendItem(appendNewline(buf, depth+1), &items[i], depth+1)
		if len(buf) >= indentChunk {
			if !jw.flush(buf) {
				return nil, false
			}
			buf = buf[:0]
		}
	}
	return append(appendNewline(buf, depth), ']'), true
}

// appendKey starts an object member at depth: a new line, then the quoted
// name (which must need no escaping) and ": ".
func appendKey(dst []byte, depth int, name string) []byte {
	return append(append(appendNewline(dst, depth), name...), ": "...)
}

// appendVMInfo appends v as encoding/json indents a VMInfo whose '{' sits
// at depth: its Go field names in declaration order, one per line at
// depth+1. Nothing in a VMInfo can fail to encode: Availability is finite
// by construction (Ledger.Availability is 1 for an empty interval and
// 1 − down/total otherwise), so there is no error path.
func appendVMInfo(dst []byte, v *core.VMInfo, depth int) []byte {
	d := depth + 1
	dst = append(dst, '{')
	dst = appendJSONString(appendKey(dst, d, `"ID"`), string(v.ID))
	dst = appendJSONString(appendKey(append(dst, ','), d, `"Customer"`), v.Customer)
	dst = appendJSONString(appendKey(append(dst, ','), d, `"Type"`), v.Type)
	dst = appendJSONString(appendKey(append(dst, ','), d, `"Phase"`), v.Phase)
	dst = appendJSONString(appendKey(append(dst, ','), d, `"Host"`), string(v.Host))
	dst = appendJSONString(appendKey(append(dst, ','), d, `"HostType"`), v.HostType)
	dst = appendJSONString(appendKey(append(dst, ','), d, `"Market"`), v.Market)
	dst = appendJSONString(appendKey(append(dst, ','), d, `"IP"`), v.IP)
	dst = appendJSONString(appendKey(append(dst, ','), d, `"BackupServer"`), v.BackupServer)
	dst = strconv.AppendInt(appendKey(append(dst, ','), d, `"Migrations"`), int64(v.Migrations), 10)
	dst = strconv.AppendInt(appendKey(append(dst, ','), d, `"Revocations"`), int64(v.Revocations), 10)
	dst = appendJSONFloat(appendKey(append(dst, ','), d, `"Availability"`), v.Availability)
	dst = appendJSONString(appendKey(append(dst, ','), d, `"Condition"`), v.Condition)
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
