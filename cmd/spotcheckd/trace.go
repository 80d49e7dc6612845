package main

import (
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// writeTrace answers GET /trace: d as the bytes an encoding/json Encoder
// with SetIndent("", "  ") writes, appended by hand like the VMInfo bodies
// and streamed like GET /servers, indentChunk at a time, so a full ring
// costs one 64 KB buffer, not a body-sized one.
func writeTrace(w http.ResponseWriter, d obs.TraceDump) {
	jw := startBody(w)
	defer jsonWriters.Put(jw)
	buf := append(jw.buf[:0], '{')
	buf = strconv.AppendUint(appendKey(buf, 1, `"total"`), d.Total, 10)
	buf = strconv.AppendUint(appendKey(append(buf, ','), 1, `"dropped"`), d.Dropped, 10)
	buf, ok := appendList(jw, appendKey(append(buf, ','), 1, `"events"`), d.Events, 1, appendTraceEvent)
	if ok {
		jw.flush(append(buf, "\n}\n"...))
	}
}

// appendTraceEvent appends e as encoding/json indents an obs.TraceEvent
// whose '{' sits at depth: the json tag names in declaration order, and no
// detail member when Detail is empty (omitempty).
func appendTraceEvent(dst []byte, e *obs.TraceEvent, depth int) []byte {
	d := depth + 1
	dst = append(dst, '{')
	dst = strconv.AppendUint(appendKey(dst, d, `"seq"`), e.Seq, 10)
	dst = strconv.AppendInt(appendKey(append(dst, ','), d, `"at"`), int64(e.At), 10)
	dst = appendJSONString(appendKey(append(dst, ','), d, `"scope"`), e.Scope)
	dst = appendJSONString(appendKey(append(dst, ','), d, `"subject"`), e.Subject)
	dst = appendJSONString(appendKey(append(dst, ','), d, `"kind"`), e.Kind)
	if e.Detail != "" {
		dst = appendJSONString(appendKey(append(dst, ','), d, `"detail"`), e.Detail)
	}
	dst = appendNewline(dst, depth)
	return append(dst, '}')
}
