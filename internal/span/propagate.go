package span

import (
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
)

// Header is the W3C Trace Context header name carried on HTTP requests
// and stamped back on traced responses.
const Header = "traceparent"

// version 00 traceparent: 00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>.
const tpLen = 2 + 1 + 32 + 1 + 16 + 1 + 2

// flagSampled is the only trace-flag bit version 00 defines.
const flagSampled = 0x01

// Encode renders the context as a version-00 W3C traceparent value.
func Encode(c Context) string {
	flags := byte(0)
	if c.Sampled {
		flags = flagSampled
	}
	return fmt.Sprintf("00-%s-%s-%02x", c.Trace, c.Span, flags)
}

// Decode parses a traceparent value. Per the W3C processing rules it
// accepts any two-digit version except the invalid ff, requires the
// version-00 field layout in lowercase hex, and rejects all-zero trace or
// parent IDs.
func Decode(v string) (Context, error) {
	v = strings.TrimSpace(v)
	if len(v) < tpLen {
		return Context{}, fmt.Errorf("span: traceparent too short (%d < %d)", len(v), tpLen)
	}
	if len(v) > tpLen && v[tpLen] != '-' {
		// Future versions may append fields, but only after another dash.
		return Context{}, fmt.Errorf("span: malformed traceparent %q", v)
	}
	if v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return Context{}, fmt.Errorf("span: malformed traceparent %q", v)
	}
	for _, f := range [...]string{v[0:2], v[3:35], v[36:52], v[53:55]} {
		if !lowerHex(f) {
			return Context{}, fmt.Errorf("span: traceparent field %q is not lowercase hex", f)
		}
	}
	if v[0:2] == "ff" {
		return Context{}, fmt.Errorf("span: invalid traceparent version ff")
	}
	// The fields are lowercase hex of the right lengths, so these decodes
	// cannot fail.
	var c Context
	var flags [1]byte
	hex.Decode(c.Trace[:], []byte(v[3:35]))
	hex.Decode(c.Span[:], []byte(v[36:52]))
	hex.Decode(flags[:], []byte(v[53:55]))
	if !c.Valid() {
		return Context{}, fmt.Errorf("span: all-zero trace or parent id in %q", v)
	}
	c.Sampled = flags[0]&flagSampled != 0
	return c, nil
}

// lowerHex reports whether s is all lowercase hex digits; W3C Trace
// Context says to ignore a traceparent with uppercase ones.
func lowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// FromRequest extracts a propagated trace context from the request's
// traceparent header. ok is false when the header is absent or invalid —
// per the spec an invalid header is ignored, not an error to the caller.
func FromRequest(r *http.Request) (Context, bool) {
	v := r.Header.Get(Header)
	if v == "" {
		return Context{}, false
	}
	c, err := Decode(v)
	if err != nil {
		return Context{}, false
	}
	return c, true
}

// Inject stamps the context on an outbound header set (a client request,
// or a server response echoing the handled span's identity).
func Inject(h http.Header, c Context) {
	h.Set(Header, Encode(c))
}
