package rules

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

func sampleRule(site string) Rule {
	return Rule{
		Site:        site,
		SubtreePath: "html[1].body[2].form[4]",
		Separator:   "table",
		LearnedAt:   time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC),
	}
}

func TestPutGetDelete(t *testing.T) {
	s := NewStore()
	r := sampleRule("www.canoe.com")
	if err := s.Put(r); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get("www.canoe.com")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got != r {
		t.Errorf("Get = %+v, want %+v", got, r)
	}
	if _, err := s.Get("missing.example"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) err = %v, want ErrNotFound", err)
	}
	s.Delete("www.canoe.com")
	if _, err := s.Get("www.canoe.com"); !errors.Is(err, ErrNotFound) {
		t.Error("rule survived Delete")
	}
}

func TestPutValidation(t *testing.T) {
	s := NewStore()
	if err := s.Put(Rule{SubtreePath: "x", Separator: "y"}); err == nil {
		t.Error("Put without site succeeded")
	}
	if err := s.Put(Rule{Site: "a.com"}); err == nil {
		t.Error("Put of invalid rule succeeded")
	}
}

func TestRuleValid(t *testing.T) {
	if (Rule{}).Valid() {
		t.Error("zero rule should be invalid")
	}
	if !sampleRule("x").Valid() {
		t.Error("sample rule should be valid")
	}
}

func TestSitesSorted(t *testing.T) {
	s := NewStore()
	for _, site := range []string{"c.com", "a.com", "b.com"} {
		if err := s.Put(sampleRule(site)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Sites(); !reflect.DeepEqual(got, []string{"a.com", "b.com", "c.com"}) {
		t.Errorf("Sites = %v", got)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			site := string(rune('a'+i)) + ".com"
			for j := 0; j < 100; j++ {
				if err := s.Put(sampleRule(site)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, err := s.Get(site); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				s.Sites()
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Errorf("Len = %d, want 8", s.Len())
	}
}
