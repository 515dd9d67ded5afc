package core

import (
	"fmt"
	"strings"

	"repro/internal/trends"
)

// RunFigure1 regenerates Figure 1: the Google Trends comparison of
// "Serverless" and "Map Reduce" interest, 2004-2018, as an ASCII chart plus
// the figure's headline statistics. The underlying series are synthetic
// shape-faithful reconstructions (Google's query logs are proprietary); the
// claim being reproduced is that serverless interest reached MapReduce's
// historic peak by publication time.
func RunFigure1(Options) []*Table {
	mr := trends.MapReduce()
	sl := trends.Serverless()
	mrPeak, mrWhen := mr.Peak()
	slPeak, slWhen := sl.Peak()

	t := &Table{
		Title:  "Figure 1: Google Trends, Serverless vs MapReduce (synthetic reconstruction)",
		Header: []string{"Series", "Peak", "Peak quarter", "2018Q4 value"},
	}
	t.AddRow("MapReduce", fmt.Sprintf("%.1f", mrPeak), mrWhen.Label(), fmt.Sprintf("%.1f", mr.Last().Value))
	t.AddRow("Serverless", fmt.Sprintf("%.1f", slPeak), slWhen.Label(), fmt.Sprintf("%.1f", sl.Last().Value))
	if x := trends.CrossoverQuarter(); x != nil {
		t.AddNote("serverless interest first exceeds MapReduce's in %s", x.Label())
	}
	t.AddNote("serverless 2018Q4 / MapReduce historic peak = %.2f (paper: \"recently matched\")",
		sl.Last().Value/mrPeak)
	for _, line := range strings.Split(strings.TrimRight(trends.Chart(12), "\n"), "\n") {
		t.AddNote("%s", line)
	}
	return []*Table{t}
}
