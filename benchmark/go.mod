module resilientdb/benchmark

go 1.24

require resilientdb v0.0.0

replace resilientdb => ../
