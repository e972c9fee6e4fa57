package faults

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzFaultSchedule drives the schedule codec with arbitrary bytes: Decode
// must never panic, and anything it accepts must re-encode canonically —
// Encode(Decode(x)) decodes back to the identical schedule and the second
// encoding is byte-identical to the first. This is what lets chaos runs
// treat a schedule file as a stable identity for a whole experiment.
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte("vhfaults v1\n"))
	f.Add([]byte("vhfaults v1\n10 partition pm2 5 0\n"))
	f.Add([]byte("# comment\n\nvhfaults v1\n1.5 degrade pm1 2 0.5\n50 vmcrash vm03 0 0\n"))
	f.Add([]byte("vhfaults v1\n0.3333333333333333 nfsstall filer 5 0.30000000000000004\n"))
	f.Add([]byte("vhfaults v1\n30 hang vm01 40 0\n60 machcrash pm2 0 0\n"))
	f.Add([]byte("vhfaults v2\n1 vmcrash vm01 0 0\n"))
	f.Add([]byte("vhfaults v1\nNaN vmcrash vm01 0 0\n"))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		enc := EncodeString(s)
		s2, err := Decode(strings.NewReader(enc))
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v\nencoding: %q", err, enc)
		}
		if !reflect.DeepEqual(s2, s) {
			t.Fatalf("round trip changed schedule:\n got %+v\nwant %+v", s2, s)
		}
		if re := EncodeString(s2); re != enc {
			t.Fatalf("re-encode unstable:\n got %q\nwant %q", re, enc)
		}
	})
}
