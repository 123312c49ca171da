module github.com/hpcrepro/pilgrim/bench

go 1.22

require github.com/hpcrepro/pilgrim v0.0.0

replace github.com/hpcrepro/pilgrim => ../
