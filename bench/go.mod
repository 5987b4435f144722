module xqgo/bench

go 1.23

require xqgo v0.0.0

replace xqgo => ../
