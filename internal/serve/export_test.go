package serve

// SpatialCfg is spatialCfg for the external serve_test package: a cold
// core.FitSpatial with it trains the networks a cold refit of the same
// target and window would.
var SpatialCfg = spatialCfg
