package experiments

import (
	"fmt"
	"sort"

	"heterosched/internal/plot"
	"heterosched/internal/report"
)

// Output is everything an experiment produces for presentation: text
// tables (always) and SVG charts (for experiments with figure panels).
type Output struct {
	Tables []*report.Table
	Charts []*plot.Chart
}

// Runner regenerates one table or figure.
type Runner func(Options) (*Output, error)

// Registry maps experiment names to runners. Keys are the identifiers
// accepted by cmd/experiments -run.
var Registry = map[string]Runner{
	"table1":        adapt(Table1),
	"table2":        adapt(func(Options) (*report.Table, error) { return Table2(), nil }),
	"fig2":          adapt(Figure2),
	"fig3":          adapt(Figure3),
	"fig4":          adapt(Figure4),
	"fig5":          adapt(Figure5),
	"fig6":          adapt(Figure6),
	"validate":      adapt(Validate),
	"ext-quantum":   adapt(AblationQuantum),
	"ext-dispatch":  adapt(AblationDispatch),
	"ext-cv":        adapt(ExtBurstiness),
	"ext-baselines": adapt(ExtBaselines),
	"ext-capped":    adapt(ExtCapped),
	"ext-diurnal":   adapt(ExtNonstationary),
	"ext-sita":      adapt(ExtSITA),
	"ext-faults":    adapt(ExtFaults),
	"ext-overload":  adapt(ExtOverload),
	"ext-drift":     adapt(ExtDrift),
	"ext-netfaults": adapt(ExtNetfaults),
	"ext-chaos":     adapt(ExtChaos),
	"ext-tracepath": adapt(ExtTracepath),
	"ext-sharding":  adapt(ExtSharding),
	"ext-control":   adapt(ExtControl),
}

// adapt turns an experiment into a Runner. The experiment's result is a
// table or renders one table or several (Render), and may carry figure
// panels (Charts).
func adapt[R any](run func(Options) (R, error)) Runner {
	return func(o Options) (*Output, error) {
		r, err := run(o)
		if err != nil {
			return nil, err
		}
		out := &Output{}
		switch v := any(r).(type) {
		case *report.Table:
			out.Tables = []*report.Table{v}
		case interface{ Render() *report.Table }:
			out.Tables = []*report.Table{v.Render()}
		case interface{ Render() []*report.Table }:
			out.Tables = v.Render()
		default:
			return nil, fmt.Errorf("experiments: %T renders no tables", r)
		}
		if v, ok := any(r).(interface{ Charts() []*plot.Chart }); ok {
			out.Charts = v.Charts()
		}
		return out, nil
	}
}

// Names returns the registry keys in sorted order.
func Names() []string {
	names := make([]string, 0, len(Registry))
	for k := range Registry {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// RunByName executes the named experiment.
func RunByName(name string, o Options) (*Output, error) {
	r, ok := Registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(o)
}
