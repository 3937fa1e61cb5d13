package farm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"omini/internal/core"
	"omini/internal/rules"
	"omini/internal/tagtree"
)

func storedRule(site string) StoredRule {
	return StoredRule{
		Rule: rules.Rule{
			Site:        site,
			SubtreePath: "html[1].body[1].ul[1]",
			Separator:   "li",
			LearnedAt:   time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
			Version:     3,
		},
		Signature: tagtree.Signature{"html": 1, "html.body": 1, "html.body.ul": 1},
		Hits:      42,
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	in := Snapshot{Rules: []StoredRule{storedRule("b.example"), storedRule("a.example")}}
	data, err := EncodeSnapshot(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.Version != SnapshotVersion {
		t.Fatalf("Version = %d, want %d", out.Version, SnapshotVersion)
	}
	if len(out.Rules) != 2 || out.Rules[0].Site != "a.example" || out.Rules[1].Site != "b.example" {
		t.Fatalf("rules not canonical by site: %+v", out.Rules)
	}
	got := out.Rules[1]
	want := storedRule("b.example")
	if got.SubtreePath != want.SubtreePath || got.Separator != want.Separator ||
		got.Version != want.Version || got.Hits != want.Hits ||
		!got.LearnedAt.Equal(want.LearnedAt) {
		t.Fatalf("rule fields lost in round trip:\ngot  %+v\nwant %+v", got, want)
	}
	if got.Signature.Similarity(want.Signature) != 1 {
		t.Fatalf("signature lost in round trip: %v", got.Signature)
	}
}

func TestDecodeSnapshotCanonicalizes(t *testing.T) {
	in := Snapshot{Rules: []StoredRule{
		storedRule("dup.example"),
		{Rule: rules.Rule{Site: "invalid.example"}},          // no path/separator
		{Rule: rules.Rule{SubtreePath: "x", Separator: "y"}}, // no site
		func() StoredRule { r := storedRule("dup.example"); r.Version = 9; return r }(),
	}}
	data, err := EncodeSnapshot(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(out.Rules) != 1 {
		t.Fatalf("canonical rules = %+v, want exactly one", out.Rules)
	}
	if out.Rules[0].Version != 9 {
		t.Fatalf("dedupe kept version %d, want last-wins 9", out.Rules[0].Version)
	}
}

func TestDecodeSnapshotRejectsNewerVersion(t *testing.T) {
	_, err := DecodeSnapshot([]byte(`{"version":99,"rules":[]}`))
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("err = %v, want ErrSnapshotVersion", err)
	}
}

func TestDecodeSnapshotRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "{", "[{]", `{"version":"x"}`, "null["} {
		if _, err := DecodeSnapshot([]byte(bad)); err == nil {
			t.Fatalf("Decode(%q) accepted garbage", bad)
		}
	}
}

// TestDecodeSnapshotRejectsMalformed is the hardening table over the
// snapshot shapes a store file or a replication transfer can carry:
// corrupt, truncated, duplicate-site, future-version and bare-array
// payloads fail (typed where the fault has a name), while the v1 and
// v2 envelopes load and individually invalid entries are skipped.
func TestDecodeSnapshotRejectsMalformed(t *testing.T) {
	good := `{"site": "good.com", "subtreePath": "html[1]", "separator": "tr"}`
	tests := []struct {
		name    string
		payload string
		rules   int   // rules a successful decode keeps
		bad     bool  // decode must fail
		wantErr error // the typed error a bad payload must carry, if any
	}{
		{name: "current envelope", payload: `{"version": 2, "rules": [` + good + `]}`, rules: 1},
		{name: "v1 envelope", payload: `{"version": 1, "rules": [` + good + `]}`, rules: 1},
		{
			name: "invalid entries skipped",
			payload: `{"version": 2, "rules": [` + good + `,
				{"site": "", "subtreePath": "html[1]", "separator": "tr"},
				{"site": "bad.com", "subtreePath": "", "separator": ""}]}`,
			rules: 1,
		},
		{name: "corrupt", payload: `{"version": 2, "rules": [{]}`, bad: true},
		{name: "truncated", payload: `{"version": 2, "rules": [` + good, bad: true},
		{name: "empty", payload: ``, bad: true},
		{name: "bare array", payload: `[` + good + `]`, bad: true},
		{
			name:    "duplicate site",
			payload: `{"version": 1, "rules": [` + good + `, ` + good + `]}`,
			bad:     true, wantErr: ErrDuplicateSite,
		},
		{
			name:    "future version",
			payload: `{"version": 99, "rules": [` + good + `]}`,
			bad:     true, wantErr: ErrSnapshotVersion,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			snap, err := DecodeSnapshot([]byte(tt.payload))
			if !tt.bad {
				if err != nil {
					t.Fatalf("DecodeSnapshot: %v", err)
				}
				if len(snap.Rules) != tt.rules {
					t.Fatalf("rules = %+v, want %d", snap.Rules, tt.rules)
				}
				return
			}
			if err == nil {
				t.Fatal("malformed snapshot accepted")
			}
			if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

// FuzzSnapshotCodec: DecodeSnapshot must never panic, and every
// accepted input must re-encode to a canonical fixed point
// (encode∘decode∘encode = encode∘decode).
func FuzzSnapshotCodec(f *testing.F) {
	f.Add([]byte(`{"version":1,"rules":[]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"site":"a","subtreePath":"html[1]","separator":"li"}]`))
	f.Add([]byte(`{"version":1,"rules":[{"site":"s.example","subtreePath":"html[1].body[1]","separator":"tr","version":2,"hits":7,"signature":{"html":1}}]}`))
	f.Add([]byte(`{"version":2,"rules":[],"tombstones":[{"site":"gone.example","version":3,"evictedAt":"2026-08-03T00:00:00Z"}]}`))
	f.Add([]byte(`{"version":2,"rules":[{"site":"both.example","subtreePath":"html[1]","separator":"li","version":2}],"tombstones":[{"site":"both.example","version":2},{"site":"both.example","version":1}]}`))
	f.Add([]byte("{"))
	f.Add([]byte("null"))
	// Seed with a real learned rule: discovery over a deterministic
	// list page, exactly what a production store holds.
	ex := core.New(core.Options{})
	var page bytes.Buffer
	page.WriteString("<html><body><ul>")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&page, `<li><a href="/%d">Seed %d</a> text</li>`, i, i)
	}
	page.WriteString("</ul></body></html>")
	if res, err := ex.ExtractContext(context.Background(), page.String()); err == nil {
		rule := res.Rule("seed.example")
		rule.Version = 1
		seed, err := EncodeSnapshot(Snapshot{Rules: []StoredRule{{
			Rule:      rule,
			Signature: tagtree.PathSignature(res.Tree),
			Hits:      1,
		}}})
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(seed)
	}
	// Inputs the decoder must reject: a rule site named twice and a
	// bare rules array (not a snapshot).
	f.Add([]byte(`{"version":2,"rules":[{"site":"d.example","subtreePath":"html[1]","separator":"li"},{"site":"d.example","subtreePath":"html[1]","separator":"tr","version":2}]}`))
	f.Add([]byte(`[{"site":"a.example","subtreePath":"html[1]","separator":"li","version":1}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return // rejected cleanly
		}
		once, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatalf("accepted snapshot failed to encode: %v", err)
		}
		again, err := DecodeSnapshot(once)
		if err != nil {
			t.Fatalf("canonical encoding failed to decode: %v", err)
		}
		twice, err := EncodeSnapshot(again)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("codec is not a fixed point:\nonce:  %s\ntwice: %s", once, twice)
		}
	})
}
