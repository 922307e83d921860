module jkernel/bench

go 1.24

require jkernel v0.0.0

replace jkernel => ../
