package main

// indenter re-indents the compact JSON encoding/json writes (no whitespace
// outside strings) exactly as json.Indent(dst, src, "", "  ") would: a
// newline and two spaces per depth after each '{', '[' and ',', a space
// after each ':', "{}" and "[]" for empty values, and strings and the
// encoder's trailing newline copied verbatim.
//
// json.Indent re-runs the JSON scanner's state machine over every byte to
// tell structure from string contents. Compact, valid input needs less: a
// byte is structural unless it sits inside a string, and a string ends at
// the first '"' no backslash escapes. So one pass that tracks only that
// gives the same bytes. The state carries across calls, so the input may
// arrive in pieces split anywhere. Input that is not compact, valid JSON
// gives unspecified output.
type indenter struct {
	depth int
	open  bool // just wrote '{' or '[': the newline waits for the first element
	str   bool // inside a string
	esc   bool // inside a string, and the next byte is escaped
}

// append appends src, indented, to dst. Bytes between the places where
// indentation goes are copied in one run.
func (ix *indenter) append(dst, src []byte) []byte {
	depth, open, str, esc := ix.depth, ix.open, ix.str, ix.esc
	run := 0 // src[run:i] is still to be copied verbatim
	for i := 0; i < len(src); {
		if str {
			// Skip to just past the closing quote, or to the end of src.
			for i < len(src) {
				c := src[i]
				i++
				if esc {
					esc = false
				} else if c == '\\' {
					esc = true
				} else if c == '"' {
					str = false
					break
				}
			}
			continue
		}
		c := src[i]
		if open && c != '}' && c != ']' {
			// run == i: '{' or '[' ended the last run.
			open = false
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '{', '[':
			dst = append(dst, src[run:i+1]...)
			open = true
			run = i + 1
		case '}', ']':
			dst = append(dst, src[run:i]...)
			if open {
				open = false
			} else {
				depth--
				dst = appendNewline(dst, depth)
			}
			run = i // the bracket starts the next run
		case ',':
			dst = append(dst, src[run:i+1]...)
			dst = appendNewline(dst, depth)
			run = i + 1
		case ':':
			dst = append(dst, src[run:i+1]...)
			dst = append(dst, ' ')
			run = i + 1
		case '"':
			str = true
		}
		i++
	}
	ix.depth, ix.open, ix.str, ix.esc = depth, open, str, esc
	return append(dst, src[run:]...)
}

// newline is a newline and the indentation of every depth a daemon body
// reaches, so most indents are one append.
const newline = "\n                                                                "

func appendNewline(dst []byte, depth int) []byte {
	if n := 1 + 2*depth; n <= len(newline) {
		return append(dst, newline[:n]...)
	}
	dst = append(dst, newline...)
	for n := 2*depth - (len(newline) - 1); n > 0; n-- {
		dst = append(dst, ' ')
	}
	return dst
}
