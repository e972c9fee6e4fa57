module vhadoop/bench

go 1.22

require vhadoop v0.0.0

replace vhadoop => ../
