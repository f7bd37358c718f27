module repro

go 1.22.0
