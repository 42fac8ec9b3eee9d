package experiments

import (
	"fmt"
	"io"

	"wsnlink/internal/models"
	"wsnlink/internal/optimize"
)

// TableIVRow is one tuning method's outcome on the case-study link.
type TableIVRow struct {
	Method       string
	Candidate    optimize.Candidate
	GoodputKbps  float64
	UEngMicroJ   float64
	PaperGoodput float64 // the paper's measured value for this method
	PaperUEng    float64
}

// TableIVResult reproduces Sec. VIII-C / Fig. 1 / Table IV: representative
// single-parameter tuning guidelines from the literature versus joint
// multi-layer optimization, on a grey-zone link whose SNR is 3 dB at
// P_tx = 23 (6 dB at maximum power, the paper's assumption).
type TableIVResult struct {
	Rows []TableIVRow
	// JointBeatsAll reports whether the joint configuration achieves at
	// least the goodput of every single-parameter row while not exceeding
	// the energy of the best single-parameter row — the Fig. 1 claim.
	JointBeatsAllGoodput bool
	// ParetoFront is the model's energy-goodput front on this link, the
	// data behind Fig. 1.
	ParetoFront []optimize.Evaluation
}

// RunTableIV regenerates Table IV using the empirical-model evaluator (the
// paper's own optimization procedure).
func RunTableIV(opts Options) (TableIVResult, error) {
	_ = opts // model-based; simulation validation lives in the bulktransfer example
	ev := optimize.NewEvaluator(models.Paper(), 23, 3)

	single := []struct {
		method string
		cand   optimize.Candidate
		pg, pu float64
	}{
		// [11]: raise output power to maximum; defaults elsewhere.
		{"[11]-Tuning power", optimize.Candidate{
			TxPower: 31, PayloadBytes: 114, MaxTries: 1, QueueCap: 1,
		}, 15.39, 0.35},
		// [6]: use retransmissions to maximize throughput.
		{"[6]-Tuning times", optimize.Candidate{
			TxPower: 23, PayloadBytes: 114, MaxTries: 3, QueueCap: 1,
		}, 8.53, 1.81},
		// [1]: minimal payload under interference.
		{"[1]-Minimal lD", optimize.Candidate{
			TxPower: 23, PayloadBytes: 5, MaxTries: 1, QueueCap: 1,
		}, 1.49, 0.50},
		// [1]: payload chosen for throughput at moderate power.
		{"[1]-Maximum lD", optimize.Candidate{
			TxPower: 25, PayloadBytes: 60, MaxTries: 1, QueueCap: 1,
		}, 11.81, 0.28},
	}

	var res TableIVResult
	var bestSingleGoodput, bestSingleEnergy float64
	bestSingleEnergy = -1
	for _, s := range single {
		e, err := ev.Evaluate(s.cand)
		if err != nil {
			return TableIVResult{}, fmt.Errorf("table IV %s: %w", s.method, err)
		}
		res.Rows = append(res.Rows, TableIVRow{
			Method: s.method, Candidate: s.cand,
			GoodputKbps: e.GoodputKbps, UEngMicroJ: e.UEngMicroJ,
			PaperGoodput: s.pg, PaperUEng: s.pu,
		})
		if e.GoodputKbps > bestSingleGoodput {
			bestSingleGoodput = e.GoodputKbps
		}
		if bestSingleEnergy < 0 || e.UEngMicroJ < bestSingleEnergy {
			bestSingleEnergy = e.UEngMicroJ
		}
	}

	// Joint multi-layer optimization: maximize goodput subject to an
	// energy budget no worse than the best single-parameter energy —
	// the paper's "minimize −G subject to minimum energy consumption".
	grid := optimize.DefaultGrid()
	evals, err := ev.EvaluateAll(grid.Candidates())
	if err != nil {
		return TableIVResult{}, err
	}
	joint, err := optimize.EpsilonConstraint(evals, optimize.MetricGoodput,
		[]optimize.Constraint{{Metric: optimize.MetricEnergy, Bound: bestSingleEnergy * 1.10}})
	if err != nil {
		return TableIVResult{}, fmt.Errorf("table IV joint: %w", err)
	}
	res.Rows = append(res.Rows, TableIVRow{
		Method: "Our work (joint MOP)", Candidate: joint.Candidate,
		GoodputKbps: joint.GoodputKbps, UEngMicroJ: joint.UEngMicroJ,
		PaperGoodput: 22.28, PaperUEng: 0.24,
	})
	res.JointBeatsAllGoodput = joint.GoodputKbps >= bestSingleGoodput-1e-9

	res.ParetoFront = optimize.ParetoFront(evals,
		[]optimize.Metric{optimize.MetricEnergy, optimize.MetricGoodput})
	return res, nil
}

// Render writes the result as text.
func (r TableIVResult) Render(w io.Writer) {
	cols := []string{"method", "Ptx", "lD", "N", "goodput(kbps)", "paper", "Ueng(uJ/bit)", "paper"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Method,
			fmt.Sprintf("%d", int(row.Candidate.TxPower)),
			fmt.Sprintf("%d", row.Candidate.PayloadBytes),
			fmt.Sprintf("%d", row.Candidate.MaxTries),
			fmt.Sprintf("%.2f", row.GoodputKbps),
			fmt.Sprintf("%.2f", row.PaperGoodput),
			fmt.Sprintf("%.3f", row.UEngMicroJ),
			fmt.Sprintf("%.2f", row.PaperUEng),
		})
	}
	renderTable(w, "Table IV: single-parameter vs joint multi-layer tuning", cols, rows)
	fmt.Fprintf(w, "joint achieves >= best single-parameter goodput: %v\n", r.JointBeatsAllGoodput)
	fmt.Fprintf(w, "\nFig 1: energy-goodput Pareto front (%d points):\n", len(r.ParetoFront))
	for _, e := range r.ParetoFront {
		fmt.Fprintf(w, "  U=%.3f uJ/bit  G=%.2f kbps  %v\n",
			e.UEngMicroJ, e.GoodputKbps, e.Candidate)
	}
}
