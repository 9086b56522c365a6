step(fst(pair(A,B)),C) :- left(A,B,C).
step(pair(A,B),pair(C,B)) :- step(A,C).
value(pair(A,B)) :- value(A), value(B).
step(snd(pair(A,B)),C) :- right(A,B,C).
step(pair(V,B),pair(V,C)) :- value(V), step(B,C).
