package span

import (
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := New(Options{SampleRate: 1, SlowThreshold: -1})
	s := tr.StartRoot("op")
	defer s.End()
	c := s.Context()
	v := Encode(c)
	if len(v) != tpLen {
		t.Fatalf("encoded length %d, want %d: %q", len(v), tpLen, v)
	}
	got, err := Decode(v)
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("round trip %+v != %+v", got, c)
	}
}

func TestDecodeKnownVector(t *testing.T) {
	// The W3C spec's own example value.
	v := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	c, err := Decode(v)
	if err != nil {
		t.Fatal(err)
	}
	if c.Trace.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace %s", c.Trace)
	}
	if c.Span.String() != "00f067aa0ba902b7" {
		t.Fatalf("span %s", c.Span)
	}
	if !c.Sampled {
		t.Fatal("sampled flag lost")
	}
	if Encode(c) != v {
		t.Fatalf("re-encode %q", Encode(c))
	}

	unsampled, err := Decode("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	if err != nil {
		t.Fatal(err)
	}
	if unsampled.Sampled {
		t.Fatal("flags 00 decoded as sampled")
	}
}

func TestDecodeFutureVersionAndTrailing(t *testing.T) {
	// Higher versions with extra dash-separated fields must still parse
	// the version-00 prefix.
	c, err := Decode("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra-stuff")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Sampled || c.Trace.IsZero() {
		t.Fatalf("future-version decode %+v", c)
	}
}

func TestDecodeRejects(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // invalid version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero parent
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0x",  // bad flags hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // bad separator
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b701",   // shifted fields
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // junk without dash
		"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01",  // uppercase ids
		"0A-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // uppercase version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0F",  // uppercase flags
		"00-+bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // sign in trace-id
	}
	for _, v := range bad {
		if _, err := Decode(v); err == nil {
			t.Fatalf("Decode(%q) accepted", v)
		}
	}
}

func TestHTTPInjectAndFromRequest(t *testing.T) {
	tr := New(Options{SampleRate: 1, SlowThreshold: -1})
	s := tr.StartRoot("client")
	defer s.End()

	req := httptest.NewRequest("GET", "/v1/estimate", nil)
	Inject(req.Header, s.Context())
	got, ok := FromRequest(req)
	if !ok || got != s.Context() {
		t.Fatalf("FromRequest = %+v, %v", got, ok)
	}

	// Absent and invalid headers are ignored, not errors.
	if _, ok := FromRequest(httptest.NewRequest("GET", "/", nil)); ok {
		t.Fatal("absent header reported ok")
	}
	req = httptest.NewRequest("GET", "/", nil)
	req.Header.Set(Header, "garbage")
	if _, ok := FromRequest(req); ok {
		t.Fatal("invalid header reported ok")
	}
}

// FuzzTraceparentDecode feeds Decode arbitrary header values, as an HTTP
// client may. Decode must never panic, and an accepted value must round
// trip: re-encoding gives back the trace-id, parent-id and flags of the
// input (characters 3 to 55 once trimmed), except the flag bits other
// than sampled, which W3C Trace Context has a propagator zero.
func FuzzTraceparentDecode(f *testing.F) {
	for _, seed := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		" cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-03-extra ",
		"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		c, err := Decode(v)
		if err != nil {
			return
		}
		if !c.Valid() {
			t.Fatalf("Decode(%q) accepted an invalid context %+v", v, c)
		}
		in := strings.TrimSpace(v)
		flags, err := strconv.ParseUint(in[53:55], 16, 8)
		if err != nil {
			t.Fatalf("Decode(%q) accepted flags %q", v, in[53:55])
		}
		want := fmt.Sprintf("%s%02x", in[3:53], flags&flagSampled)
		if got := Encode(c)[3:]; got != want {
			t.Fatalf("Decode(%q) re-encodes as %q, want %q", v, got, want)
		}
	})
}
