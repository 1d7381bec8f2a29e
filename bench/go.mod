// The benchmark is a module of its own so that it builds from this
// directory alone; the import path stays under shaclfrag/ so it may use the
// serving code's internal packages.
module shaclfrag/bench

go 1.22

require shaclfrag v0.0.0

replace shaclfrag => ../
