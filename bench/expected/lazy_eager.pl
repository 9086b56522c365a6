step(app(lam(X,B),A),T) :- value(A), substitute(A,X,B,T).
step(app(A,B),app(C,B)) :- step(A,C).
step(app(V,B),app(V,C)) :- value(V), step(B,C).
