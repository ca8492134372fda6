package forest

// TrainExact exposes the sort-based reference forest to the external
// parity test, which needs the analysis pipeline and so cannot live in
// package forest.
var TrainExact = trainExact
