eval(E1,E1) :- value(E1).
eval(E1,E3) :- step(E1,E2), eval(E2,E3).
value(var(_G3)).
value(lam(_G4,_G5)).
value(lit(_G6)).
step(add(lit(A),lit(B)),lit(C)) :- int_add(A,B,C).
step(add(T1,T2),add(T3,T2)) :- step(T1,T3).
step(add(V,T1),add(V,T2)) :- value(V), step(T1,T2).
left(A,_G14,A).
right(_G15,B,B).
step(app(lam(X,B),A),T) :- value(A), substitute(A,X,B,T).
step(app(A,B),app(C,B)) :- step(A,C).
step(app(V,B),app(V,C)) :- value(V), step(B,C).
step(fst(pair(A,B)),C) :- left(A,B,C).
step(pair(A,B),pair(C,B)) :- step(A,C).
value(pair(A,B)) :- value(A), value(B).
step(snd(pair(A,B)),C) :- right(A,B,C).
step(pair(V,B),pair(V,C)) :- value(V), step(B,C).
step(head(cons(A,B)),C) :- left(A,B,C).
step(tail(cons(A,B)),C) :- right(A,B,C).
step(cons(A,B),cons(C,B)) :- step(A,C).
value(cons(A,B)) :- value(A), value(B).
step(cons(V,B),cons(V,C)) :- value(V), step(B,C).
value(nil).
step(if(A,B),C) :- pred_1(A,B,C).
pred_1(true,A,B) :- step(A,B).
step(thenelse(A,B),C) :- left(A,B,C).
pred_1(false,A,B) :- pred_2(A,B).
pred_2(thenelse(A,B),C) :- right(A,B,C).
step(if(A,B),if(C,B)) :- step(A,C).
value(true).
value(false).
