step(head(cons(A,B)),C) :- left(A,B,C).
step(tail(cons(A,B)),C) :- right(A,B,C).
step(cons(A,B),cons(C,B)) :- step(A,C).
value(cons(A,B)) :- value(A), value(B).
step(cons(V,B),cons(V,C)) :- value(V), step(B,C).
value(nil).
