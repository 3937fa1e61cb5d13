// Package nav discovers result-list navigation on extracted pages: the
// next-page link an aggregation service follows to gather the full result
// set (the crawl loop around the paper's Figure 3 pipeline), and numbered
// pagination bars. Like the rest of the system it is heuristic and fully
// automatic.
package nav

import (
	"strconv"
	"strings"

	"omini/internal/tagtree"
)

// nextWords are anchor texts that signal the next result page, checked
// after whitespace collapsing and lower-casing.
var nextWords = map[string]bool{
	"next":            true,
	"next page":       true,
	"next 10":         true,
	"next 20":         true,
	"next results":    true,
	"more":            true,
	"more results":    true,
	">":               true,
	">>":              true,
	"›":               true,
	"»":               true,
	"next →":          true,
	"show more":       true,
	"view more":       true,
	"next 10 matches": true,
	"next 20 records": true,
}

// FindNext returns the href of the most plausible next-page link on the
// page, preferring an explicit rel="next" anchor, then next-flavored link
// text (with "next N ..." prefixes recognized), then a numbered pagination
// bar's successor. ok is false when the page offers no next link.
func FindNext(root *tagtree.Node) (href string, ok bool) {
	var relNext, textNext string
	root.Walk(func(n *tagtree.Node) bool {
		if n.Tag != "a" {
			return true
		}
		target := attr(n, "href")
		if target == "" {
			return true
		}
		if strings.EqualFold(attr(n, "rel"), "next") && relNext == "" {
			relNext = target
		}
		if textNext == "" && isNextText(n.InnerText()) {
			textNext = target
		}
		return true
	})
	switch {
	case relNext != "":
		return relNext, true
	case textNext != "":
		return textNext, true
	}
	if bar := FindPagination(root); bar != nil {
		if next := bar.Next(); next != "" {
			return next, true
		}
	}
	return "", false
}

// isNextText reports whether anchor text announces the next page.
func isNextText(text string) bool {
	t := strings.ToLower(strings.Join(strings.Fields(text), " "))
	if nextWords[t] {
		return true
	}
	// "next 20 records", "next 10 hits", ... — any phrase led by "next".
	return strings.HasPrefix(t, "next ")
}

// Pagination is a numbered page bar: links labelled 1, 2, 3... plus the
// current (unlinked) page number.
type Pagination struct {
	// Current is the page number rendered without a link (the page being
	// viewed); 0 when every number is linked.
	Current int
	// Links maps page numbers to hrefs.
	Links map[int]string
}

// Next returns the href of Current+1, or of the smallest numbered link
// when the current page is unknown; "" when absent.
func (p *Pagination) Next() string {
	if p.Current > 0 {
		return p.Links[p.Current+1]
	}
	best := 0
	for n := range p.Links {
		if best == 0 || n < best {
			best = n
		}
	}
	return p.Links[best]
}

// FindPagination locates the densest run of numbered sibling links on the
// page (at least three consecutive numbers), or nil.
func FindPagination(root *tagtree.Node) *Pagination {
	var best *Pagination
	root.Walk(func(n *tagtree.Node) bool {
		if n.IsContent() {
			return true
		}
		p := paginationUnder(n)
		if p == nil {
			return true
		}
		if best == nil || len(p.Links) > len(best.Links) {
			best = p
		}
		return true
	})
	return best
}

// paginationUnder inspects one parent's children for a numbered bar. It
// runs on every parent node of every page, so it allocates nothing until
// a child reads as a page number.
func paginationUnder(parent *tagtree.Node) *Pagination {
	var links map[int]string
	current := 0
	for _, c := range parent.Children {
		switch {
		case c.IsContent():
			if n, ok := pageNumber(c.Text); ok {
				current = n
			}
		case c.Tag == "a":
			n, ok := pageNumber(c.InnerText())
			if !ok {
				continue
			}
			if target := attr(c, "href"); target != "" {
				if links == nil {
					links = make(map[int]string)
				}
				links[n] = target
			}
		case c.Tag == "b", c.Tag == "strong", c.Tag == "font", c.Tag == "span":
			// The current page is often wrapped for emphasis.
			if n, ok := pageNumber(c.InnerText()); ok {
				current = n
			}
		}
	}
	if !isNumberRun(links, current) {
		return nil
	}
	return &Pagination{Current: current, Links: links}
}

// pageNumber parses text as a plausible page number. Text that is not
// an optionally signed run of digits is rejected before strconv.Atoi,
// which would allocate an error for it.
func pageNumber(text string) (int, bool) {
	text = strings.TrimSpace(text)
	digits := text
	if digits != "" && (digits[0] == '+' || digits[0] == '-') {
		digits = digits[1:]
	}
	if digits == "" {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(text)
	return n, err == nil && plausiblePage(n)
}

// plausiblePage bounds page numbers; result sets are not millions of pages
// and years/IDs should not read as pagination.
func plausiblePage(n int) bool { return n >= 1 && n <= 999 }

// isNumberRun requires at least three numbers forming a consecutive run
// (counting the unlinked current page).
func isNumberRun(links map[int]string, current int) bool {
	if len(links) == 0 {
		return false
	}
	present := make(map[int]bool, len(links)+1)
	for n := range links {
		present[n] = true
	}
	if current > 0 {
		present[current] = true
	}
	if len(present) < 3 {
		return false
	}
	run, bestRun := 0, 0
	for n := 1; n <= 1000; n++ {
		if present[n] {
			run++
			if run > bestRun {
				bestRun = run
			}
		} else {
			run = 0
		}
	}
	return bestRun >= 3
}

func attr(n *tagtree.Node, name string) string {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value
		}
	}
	return ""
}
