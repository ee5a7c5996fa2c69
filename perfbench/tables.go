package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
)

// table is one blank-line-separated block of rendered output.
type table struct {
	title  string
	digest string
	// rows counts the lines after the dashed rule that start with a
	// digit: one per cell in a thread-ladder table.
	rows int
}

// splitTables cuts rendered output into tables and digests each. A
// table's digest covers its title line and its other lines in sorted
// order, so it does not depend on the order in which rows for
// machines or specs were requested, while any changed value changes it.
func splitTables(out []byte) []table {
	var ts []table
	for _, block := range bytes.Split(out, []byte("\n\n")) {
		lines := bytes.Split(bytes.Trim(block, "\n"), []byte("\n"))
		if len(lines[0]) == 0 {
			continue
		}
		body := lines[1:]
		rows, ruled := 0, false
		for _, l := range body {
			switch {
			case bytes.HasPrefix(l, []byte("---")):
				ruled = true
			case ruled && len(l) > 0 && l[0] >= '0' && l[0] <= '9':
				rows++
			}
		}
		slices.SortFunc(body, bytes.Compare)
		h := sha256.New()
		h.Write(lines[0])
		for _, l := range body {
			h.Write([]byte{'\n'})
			h.Write(l)
		}
		ts = append(ts, table{title: string(lines[0]), digest: hex.EncodeToString(h.Sum(nil)[:8]), rows: rows})
	}
	return ts
}

// tableDigests is the sorted list of table digests of an output.
func tableDigests(out []byte) []string {
	var ds []string
	for _, t := range splitTables(out) {
		ds = append(ds, t.digest)
	}
	sort.Strings(ds)
	return ds
}

// groupRecord is the recorded result of one atomicd job table.
type groupRecord struct {
	Digest string `json:"digest"`
	Cells  int    `json:"cells"`
}

// digestFile holds the outputs recorded with the benchmark (see
// -record): the sorted table digests of each command-line workload and
// the digest and cell count of every table an atomicd-mix job can
// return.
type digestFile struct {
	Tables map[string][]string    `json:"tables"`
	Mix    map[string]groupRecord `json:"mix"`
}

func loadDigests(path string) (*digestFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d digestFile
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// checkTables compares an output's tables with the recorded ones.
func checkTables(out []byte, want []string) error {
	got := tableDigests(out)
	if slices.Equal(got, want) {
		return nil
	}
	missing, extra := 0, 0
	for _, d := range got {
		if _, ok := slices.BinarySearch(want, d); !ok {
			extra++
		}
	}
	for _, d := range want {
		if _, ok := slices.BinarySearch(got, d); !ok {
			missing++
		}
	}
	return fmt.Errorf("%d tables, %d recorded: %d differ from the record, %d recorded ones missing", len(got), len(want), extra, missing)
}
