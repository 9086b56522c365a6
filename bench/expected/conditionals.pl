step(if(A,B),C) :- pred_1(A,B,C).
pred_1(true,A,B) :- step(A,B).
step(thenelse(A,B),C) :- left(A,B,C).
pred_1(false,A,B) :- pred_2(A,B).
pred_2(thenelse(A,B),C) :- right(A,B,C).
step(if(A,B),if(C,B)) :- step(A,C).
value(true).
value(false).
