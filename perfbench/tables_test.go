package main

import (
	"strings"
	"testing"
)

const twoTables = `W (EPYC): high-faa
threads  Mops
-------------
1        111.38
2        17.13
  note: spec digest 4b9a1d5c1a7a

FLEET summary: high-faa across 2 machines
machine  peak Mops
EPYC     111.38
KNL      38.24
`

func TestSplitTablesIgnoresRowOrderButNotValues(t *testing.T) {
	ts := splitTables([]byte(twoTables))
	if len(ts) != 2 || ts[0].title != "W (EPYC): high-faa" || ts[0].rows != 2 || ts[1].rows != 0 {
		t.Fatalf("split into %+v", ts)
	}
	reordered := strings.Replace(twoTables, "EPYC     111.38\nKNL      38.24", "KNL      38.24\nEPYC     111.38", 1)
	if err := checkTables([]byte(reordered), tableDigests([]byte(twoTables))); err != nil {
		t.Fatalf("reordered rows: %v", err)
	}
	changed := strings.Replace(twoTables, "38.24", "38.25", 1)
	if err := checkTables([]byte(changed), tableDigests([]byte(twoTables))); err == nil {
		t.Fatal("a changed value passed the check")
	}
}
