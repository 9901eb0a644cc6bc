module horus/bench

go 1.22

require horus v0.0.0

replace horus => ../
