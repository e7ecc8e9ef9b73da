module skute/benchmark

go 1.24

require skute v0.0.0

replace skute => ../
