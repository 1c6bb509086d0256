package server

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// endpointLine matches a `METHOD /path` row of spannerd's usage comment.
var endpointLine = regexp.MustCompile(`^//\t(GET|HEAD|POST|PUT|PATCH|DELETE) +(/\S*)`)

// TestUsageCommentListsTheRouteTable: the Endpoints block of
// cmd/spannerd's package comment names every route exactly once and
// nothing else. A row's `[?…]` or `?query=…` suffix is documentation of
// its parameters and is not part of the pattern.
func TestUsageCommentListsTheRouteTable(t *testing.T) {
	src, err := os.ReadFile("../../cmd/spannerd/main.go")
	if err != nil {
		t.Fatal(err)
	}
	comment, _, ok := strings.Cut(string(src), "\npackage main")
	if !ok {
		t.Fatal("cmd/spannerd/main.go has no package clause")
	}
	listed := map[string]int{}
	for _, line := range strings.Split(comment, "\n") {
		m := endpointLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		path, _, _ := strings.Cut(m[2], "?")
		path, _, _ = strings.Cut(path, "[")
		listed[m[1]+" "+path]++
	}
	for _, rt := range routes {
		if n := listed[rt.pattern]; n != 1 {
			t.Errorf("route %q is listed %d times in spannerd's usage comment, want once", rt.pattern, n)
		}
		delete(listed, rt.pattern)
	}
	for pattern := range listed {
		t.Errorf("spannerd's usage comment lists %q, which is not a route", pattern)
	}
}
