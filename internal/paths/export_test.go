package paths

// The generators and the relation oracle of paths_test.go, for the external
// test package (which may import shapetest; this one may not — shapetest
// imports paths).
var (
	NaiveRelation = naiveRelation
	RandomExpr    = randomExpr
	RandomGraph   = randomGraph
)
