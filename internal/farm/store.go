package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"omini/internal/govern"
	"omini/internal/rules"
	"omini/internal/tagtree"
)

// The persisted rule store: a versioned JSON snapshot of every learned
// rule plus its training-page signature, written atomically (temp file
// + fsync + rename, then a directory fsync) so a crash mid-save can
// never leave a torn or zero-length store. This file is the only code
// that knows the rule format: ominiserve -rule-store, omini -rules,
// GET /rulesz?view=sync and ruledist transfers all carry these bytes.

// SnapshotVersion is the store format version this package writes.
// Version 2 added tombstones: deliberately evicted rules are recorded
// so anti-entropy sync between nodes cannot resurrect a redesigned
// site's dead rule. Version-1 files (which simply carry no tombstones)
// still load.
const SnapshotVersion = 2

// ErrSnapshotVersion is returned when a snapshot was written by a
// newer format version than this binary understands.
var ErrSnapshotVersion = errors.New("farm: snapshot format version too new")

// ErrDuplicateSite is returned when a snapshot holds two rules for one
// site: silently letting the last one win would mask a corrupt or
// hand-edited file, so the whole snapshot is rejected.
var ErrDuplicateSite = errors.New("farm: duplicate site in snapshot")

// StoredRule is one persisted rule: the replayable extraction rule,
// the training-page signature for drift revalidation, and the hit
// count at save time (informational).
type StoredRule struct {
	rules.Rule
	// Signature is the training page's tag-path structure; an empty
	// signature disables drift checks for the rule until it is
	// relearned.
	Signature tagtree.Signature `json:"signature,omitempty"`
	// Hits is the rule's fast-path hit count when the snapshot was
	// taken.
	Hits int64 `json:"hits,omitempty"`
}

// Tombstone records a deliberately killed rule: the site and the
// version the rule carried when drift detection, a fast-path mismatch
// or an explicit invalidation evicted it. During anti-entropy sync a
// tombstone suppresses any peer copy at or below its version, so a
// stale node cannot resurrect a redesigned site's dead rule; a fresh
// relearn lands above the tombstone's version and clears it.
type Tombstone struct {
	Site      string    `json:"site"`
	Version   int       `json:"version"`
	EvictedAt time.Time `json:"evictedAt"`
}

// Snapshot is the on-disk envelope (and the ruledist wire format).
type Snapshot struct {
	Version    int          `json:"version"`
	Rules      []StoredRule `json:"rules"`
	Tombstones []Tombstone  `json:"tombstones,omitempty"`
}

// DecodeSnapshot parses a snapshot from its JSON encoding: the
// versioned envelope, v1 (without tombstones) or v2 (with). Anything
// else is rejected: a bare JSON array, an envelope declaring a newer
// version (ErrSnapshotVersion), and one naming a rule site twice
// (ErrDuplicateSite). Individually invalid rules and malformed
// tombstones are dropped, not fatal. The result is canonical — one
// entry per site, rules and tombstones reconciled under the version
// conflict rule, sorted by site — so decode∘encode is a fixed point.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return Snapshot{}, fmt.Errorf("farm: decode snapshot: %w", err)
	}
	if snap.Version > SnapshotVersion {
		return Snapshot{}, fmt.Errorf("%w: %d > %d", ErrSnapshotVersion, snap.Version, SnapshotVersion)
	}
	seen := make(map[string]bool, len(snap.Rules))
	for _, r := range snap.Rules {
		if r.Site == "" {
			continue
		}
		if seen[r.Site] {
			return Snapshot{}, fmt.Errorf("%w: %q", ErrDuplicateSite, r.Site)
		}
		seen[r.Site] = true
	}
	snap.Version = SnapshotVersion
	snap.Rules, snap.Tombstones = canonicalize(nil, snap.Rules, snap.Tombstones)
	return snap, nil
}

// EncodeSnapshot serializes a snapshot in canonical form: current
// format version, invalid entries dropped, one entry per site,
// rules/tombstones reconciled, sorted.
func EncodeSnapshot(snap Snapshot) ([]byte, error) {
	snap.Version = SnapshotVersion
	snap.Rules, snap.Tombstones = canonicalize(nil, snap.Rules, snap.Tombstones)
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("farm: encode snapshot: %w", err)
	}
	return append(data, '\n'), nil
}

// canonicalize produces the canonical rule and tombstone lists,
// applying the cluster-wide version conflict rule between them: a
// tombstone at or above a rule's version suppresses the rule (the
// eviction is newer knowledge); a rule above the tombstone's version
// clears the tombstone (the relearn superseded the eviction). The
// result never holds both a rule and a tombstone for one site.
func canonicalize(g *govern.Guard, rs []StoredRule, ts []Tombstone) ([]StoredRule, []Tombstone) {
	rs = canonicalRules(g, rs)
	ts = canonicalTombstones(g, ts)
	if len(ts) == 0 {
		return rs, ts
	}
	tombV := make(map[string]int, len(ts))
	for _, t := range ts {
		if g.Poll() != nil {
			break
		}
		tombV[t.Site] = t.Version
	}
	ruleV := make(map[string]int, len(rs))
	outR := make([]StoredRule, 0, len(rs))
	for _, r := range rs {
		if g.Poll() != nil {
			break
		}
		if tv, ok := tombV[r.Site]; ok && tv >= r.Version {
			continue // the tombstone wins; the rule stays dead
		}
		ruleV[r.Site] = r.Version
		outR = append(outR, r)
	}
	outT := make([]Tombstone, 0, len(ts))
	for _, t := range ts {
		if g.Poll() != nil {
			break
		}
		if rv, ok := ruleV[t.Site]; ok && rv > t.Version {
			continue // a newer rule cleared this tombstone
		}
		outT = append(outT, t)
	}
	if len(outT) == 0 {
		outT = nil // encode omits the field entirely (omitempty)
	}
	return outR, outT
}

// canonicalRules filters invalid rules, deduplicates by site (last
// wins) and sorts by site, charging the guard per rule.
func canonicalRules(g *govern.Guard, in []StoredRule) []StoredRule {
	bySite := make(map[string]StoredRule, len(in))
	order := make([]string, 0, len(in))
	for _, r := range in {
		if g.Poll() != nil {
			break
		}
		if r.Site == "" || !r.Valid() {
			continue
		}
		if r.Version <= 0 {
			r.Version = 1 // pre-versioning rules normalize to v1
		}
		if _, seen := bySite[r.Site]; !seen {
			order = append(order, r.Site)
		}
		bySite[r.Site] = r
	}
	sort.Strings(order)
	out := make([]StoredRule, 0, len(order))
	for _, site := range order {
		if g.Poll() != nil {
			break
		}
		out = append(out, bySite[site])
	}
	return out
}

// canonicalTombstones filters malformed tombstones, deduplicates by
// site (highest version wins) and sorts by site, charging the guard.
func canonicalTombstones(g *govern.Guard, in []Tombstone) []Tombstone {
	bySite := make(map[string]Tombstone, len(in))
	order := make([]string, 0, len(in))
	for _, t := range in {
		if g.Poll() != nil {
			break
		}
		if t.Site == "" || t.Version <= 0 {
			continue
		}
		prev, seen := bySite[t.Site]
		if !seen {
			order = append(order, t.Site)
		}
		if !seen || t.Version >= prev.Version {
			bySite[t.Site] = t
		}
	}
	sort.Strings(order)
	out := make([]Tombstone, 0, len(order))
	for _, site := range order {
		if g.Poll() != nil {
			break
		}
		out = append(out, bySite[site])
	}
	return out
}

// LoadSnapshot reads and decodes a snapshot file.
func LoadSnapshot(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, fmt.Errorf("farm: load snapshot: %w", err)
	}
	return DecodeSnapshot(data)
}

// SaveSnapshot writes the snapshot atomically and durably: encode,
// write to a temp file in the destination directory, fsync the temp
// file, rename into place, fsync the directory. The two fsyncs are
// what make the rename crash-safe — without them a power cut shortly
// after the rename can surface as a zero-length (or vanished) store
// on some filesystems, which is exactly the torn state the atomic
// rename exists to rule out. Returns the encoded size.
func SaveSnapshot(path string, snap Snapshot) (int64, error) {
	data, err := EncodeSnapshot(snap)
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".rulestore-*")
	if err != nil {
		return 0, fmt.Errorf("farm: snapshot temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("farm: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("farm: snapshot fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("farm: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("farm: snapshot rename: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("farm: snapshot dir open: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("farm: snapshot dir fsync: %w", err)
	}
	return nil
}
