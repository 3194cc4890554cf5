package dse

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteFrontCSV writes the feasible Pareto front as CSV
// (power_w, service, dropped) for external plotting.
func WriteFrontCSV(w io.Writer, res *Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"power_w", "service", "dropped"}); err != nil {
		return err
	}
	for _, ind := range res.Front {
		rec := []string{
			strconv.FormatFloat(ind.Power, 'f', 6, 64),
			strconv.FormatFloat(ind.Service, 'f', 2, 64),
			strings.Join(ind.Dropped, ";"),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteHistoryCSV writes the per-generation convergence record as CSV
// (generation, island, best_power_w, feasible_in_archive, archive_size
// and the per-migration migrant count). Multi-island runs emit one row
// per (generation, island); single-island runs keep island 0 and
// migrants_in 0 throughout.
func WriteHistoryCSV(w io.Writer, res *Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"generation", "island", "best_power_w", "feasible", "archive",
		"migrants_in"}); err != nil {
		return err
	}
	for _, h := range res.History {
		best := ""
		if h.BestPower >= 0 {
			best = strconv.FormatFloat(h.BestPower, 'f', 6, 64)
		}
		rec := []string{
			strconv.Itoa(h.Gen), strconv.Itoa(h.Island), best,
			strconv.Itoa(h.Feasible), strconv.Itoa(h.ArchiveSize),
			strconv.Itoa(h.MigrantsIn),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Summary renders a one-paragraph result digest.
func Summary(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "evaluated %d candidates (%d feasible)", res.Stats.Evaluated, res.Stats.Feasible)
	if res.Best != nil {
		fmt.Fprintf(&b, "; best %.3f W at service %.0f", res.Best.Power, res.Best.Service)
	} else {
		b.WriteString("; no feasible design")
	}
	fmt.Fprintf(&b, "; front size %d", len(res.Front))
	if res.Stats.RescuedByDropping > 0 {
		fmt.Fprintf(&b, "; %.2f%% rescued by dropping", 100*res.Stats.RescueRatio())
	}
	return b.String()
}
