package approx

// TrainInstance exposes the unit-cost training chain to the external test
// package.
var TrainInstance = trainInstance
