// Package rules implements the extraction-rule cache of the paper's Section
// 6.6: because the structure of a web site rarely changes, the minimal
// subtree path and separator tag discovered for one page of a site can be
// stored and replayed on its other pages, skipping subtree and separator
// discovery entirely — the second, order-of-magnitude-faster extraction
// method of Table 17.
//
// This package holds the Rule type and an in-memory Store. It knows no
// file format: a rule is persisted only through internal/farm's
// snapshot codec, the file behind ominiserve -rule-store and omini -rules.
package rules

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Rule is a learned extraction rule for one site.
type Rule struct {
	// Site identifies the web site the rule was learned from.
	Site string `json:"site"`
	// SubtreePath is the dot-notation path of the object-rich subtree.
	SubtreePath string `json:"subtreePath"`
	// Separator is the object separator tag.
	Separator string `json:"separator"`
	// LearnedAt records when the rule was discovered (RFC 3339 in JSON).
	LearnedAt time.Time `json:"learnedAt"`
	// Version counts how many times the site's rule has been learned:
	// 1 on first discovery, incremented on every drift- or
	// mismatch-triggered relearn. Zero means the rule predates
	// versioning (treated as version 1).
	Version int `json:"version,omitempty"`
}

// Valid reports whether the rule carries the fields replay requires.
func (r Rule) Valid() bool {
	return r.SubtreePath != "" && r.Separator != ""
}

// ErrNotFound is returned when a store holds no rule for a site.
var ErrNotFound = errors.New("rules: no rule for site")

// Store is a concurrency-safe, in-memory collection of per-site
// extraction rules.
type Store struct {
	mu    sync.RWMutex
	rules map[string]Rule
}

// NewStore returns an empty rule store.
func NewStore() *Store {
	return &Store{rules: make(map[string]Rule)}
}

// Put stores (or replaces) the rule for its site.
func (s *Store) Put(r Rule) error {
	if r.Site == "" {
		return errors.New("rules: rule has no site")
	}
	if !r.Valid() {
		return fmt.Errorf("rules: invalid rule for site %q", r.Site)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules[r.Site] = r
	return nil
}

// Get returns the rule for the site, or ErrNotFound.
func (s *Store) Get(site string) (Rule, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.rules[site]
	if !ok {
		return Rule{}, fmt.Errorf("%w: %s", ErrNotFound, site)
	}
	return r, nil
}

// Delete removes the rule for the site, if present.
func (s *Store) Delete(site string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.rules, site)
}

// Len returns the number of stored rules.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rules)
}

// Sites returns the stored sites in sorted order.
func (s *Store) Sites() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sites := make([]string, 0, len(s.rules))
	for site := range s.rules {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	return sites
}
