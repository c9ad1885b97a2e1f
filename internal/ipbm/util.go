package ipbm

import (
	"sort"

	"ipsa/internal/template"
)

func sortedTableNames(cfg *template.Config) []string {
	out := make([]string, 0, len(cfg.Tables))
	for n := range cfg.Tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
